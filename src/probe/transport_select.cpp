#include "probe/transport_select.h"

#include "common/error.h"
#include "probe/io_uring_network.h"
#include "probe/raw_socket_network.h"
#include "probe/uring.h"

namespace mmlpt::probe {

std::optional<TransportKind> parse_transport_name(
    std::string_view name) noexcept {
  if (name == "auto") return TransportKind::kAuto;
  if (name == "poll") return TransportKind::kPoll;
  if (name == "uring") return TransportKind::kUring;
  return std::nullopt;
}

std::string_view transport_name(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::kAuto:
      return "auto";
    case TransportKind::kPoll:
      return "poll";
    case TransportKind::kUring:
      return "uring";
  }
  return "auto";
}

TransportKind resolve_transport(TransportKind kind) noexcept {
  if (kind != TransportKind::kAuto) return kind;
  return uring::kernel_supported() ? TransportKind::kUring
                                   : TransportKind::kPoll;
}

std::string_view resolved_transport_name(TransportKind kind) noexcept {
  return transport_name(resolve_transport(kind));
}

std::unique_ptr<TransportQueue> make_transport(
    TransportKind kind, net::Family family,
    std::chrono::milliseconds reply_timeout, obs::MetricsRegistry& metrics) {
  const TransportKind resolved = resolve_transport(kind);
  if (resolved == TransportKind::kUring) {
    if (!IoUringNetwork::supported()) {
      // Only reachable for an explicit --transport uring: auto never
      // resolves here on a kernel without io_uring.
      throw ConfigError(
          "--transport uring: io_uring not supported by this kernel "
          "(use --transport auto for the poll fallback)");
    }
    IoUringNetwork::Config config;
    config.reply_timeout = reply_timeout;
    config.family = family;
    return std::make_unique<IoUringNetwork>(config, metrics);
  }
  return std::make_unique<RawSocketNetwork>(
      RawSocketNetwork::Config{reply_timeout, family}, metrics);
}

}  // namespace mmlpt::probe
