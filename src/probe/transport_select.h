// Startup-time choice of the real-network transport backend, shared by
// every CLI and the daemon: `auto` resolves through the cached
// io_uring_setup capability probe — IoUringNetwork when the kernel can
// host a ring, transparent fallback to the poll()-driven
// RawSocketNetwork otherwise. An EXPLICIT `uring` request on a kernel
// without io_uring is a configuration error (loud, not silently
// degraded); `poll` always works.
#ifndef MMLPT_PROBE_TRANSPORT_SELECT_H
#define MMLPT_PROBE_TRANSPORT_SELECT_H

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "net/ip_address.h"

namespace mmlpt::obs {
class MetricsRegistry;
}

namespace mmlpt::probe {

class TransportQueue;

enum class TransportKind {
  kAuto,   ///< uring when the kernel supports it, else poll
  kPoll,   ///< RawSocketNetwork: poll()-driven, sendmmsg/recvmmsg batched
  kUring,  ///< IoUringNetwork: io_uring submission/completion ring
};

/// Parse a --transport value; nullopt for anything but auto|poll|uring.
[[nodiscard]] std::optional<TransportKind> parse_transport_name(
    std::string_view name) noexcept;

/// The flag spelling for a kind (auto|poll|uring).
[[nodiscard]] std::string_view transport_name(TransportKind kind) noexcept;

/// Resolve `auto` against the running kernel (cached io_uring_setup
/// probe). kPoll and kUring resolve to themselves — validity is
/// make_transport's concern.
[[nodiscard]] TransportKind resolve_transport(TransportKind kind) noexcept;

/// The name a resolved choice is echoed under in status/summary output.
[[nodiscard]] std::string_view resolved_transport_name(
    TransportKind kind) noexcept;

/// Construct the chosen backend (resolving `auto` first). Throws
/// ConfigError when `uring` is requested explicitly but the kernel
/// lacks io_uring; SystemError when socket/ring setup fails
/// (CAP_NET_RAW is required either way). The backend's
/// transport-labeled series live in `metrics`, which must outlive it.
[[nodiscard]] std::unique_ptr<TransportQueue> make_transport(
    TransportKind kind, net::Family family,
    std::chrono::milliseconds reply_timeout, obs::MetricsRegistry& metrics);

}  // namespace mmlpt::probe

#endif  // MMLPT_PROBE_TRANSPORT_SELECT_H
