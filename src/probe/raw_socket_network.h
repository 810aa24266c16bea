// Real-network backend using Linux raw sockets. This is the deployment
// path the paper's tool uses on PlanetLab: a header-included raw socket
// for sending crafted probes, a raw ICMP / ICMPv6 socket for receiving
// replies, and quoted-probe matching to pair them up.
//
// IPv4 uses IP_HDRINCL; IPv6 uses IPV6_HDRINCL (Linux >= 4.15) so the
// crafted flow label goes out exactly as built. ICMPv6 raw sockets
// deliver the message without its IPv6 header, so the receive path
// reconstructs one from the peer address and ancillary hop limit before
// handing the datagram to the shared parser.
//
// Completion-queue backend: submit() fires a window with ONE sendmmsg()
// batch and records each probe as a pending slot with a per-ticket
// deadline (Config::reply_timeout unless SubmitOptions::deadline
// overrides it); poll_completions() runs ONE poll()-driven receive loop
// over every pending slot of every in-flight ticket, draining each
// wakeup with recvmmsg() so a burst of replies costs one syscall, not
// one per datagram. Tickets submitted concurrently share a single
// receive loop and their reply timeouts all overlap. Reply-to-slot
// matching is the two-tier attribution policy (probe::ReplyAttributor).
//
// The receive loop is hardened against EINTR and deadline drift: after
// every wakeup — signal, stray packet, poll() returning early on its
// truncated millisecond budget — the remaining timeout is recomputed
// from the monotonic clock against each ticket's absolute deadline
// (see poll_budget_ms), never reused from the original budget. The
// recompute happens once per WAKEUP, not once per received datagram
// (the budget-recompute counter is the regression guard).
//
// Requires CAP_NET_RAW (root) and Internet access; constructing without
// privileges throws mmlpt::SystemError. Unit tests therefore run against
// SimulatedNetwork; the loopback conformance suite and a loopback
// whole-trace test exercise this backend directly when run privileged.
#ifndef MMLPT_PROBE_RAW_SOCKET_NETWORK_H
#define MMLPT_PROBE_RAW_SOCKET_NETWORK_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

#include "net/ip_address.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "probe/reply_attribution.h"
#include "probe/transport_queue.h"

namespace mmlpt::probe {

/// The poll() budget for one receive-loop wakeup: the time remaining
/// until `deadline`, measured from `now` (a fresh monotonic-clock
/// sample), rounded UP to whole milliseconds so a sub-millisecond
/// remainder still waits instead of spinning or expiring early. Returns
/// 0 when the deadline has passed — the caller resolves expired slots
/// rather than polling. Pure so the EINTR/drift discipline is unit
/// testable without a socket.
[[nodiscard]] constexpr int poll_budget_ms(
    std::chrono::steady_clock::time_point now,
    std::chrono::steady_clock::time_point deadline) noexcept {
  if (deadline <= now) return 0;
  const auto remaining = std::chrono::duration_cast<std::chrono::nanoseconds>(
      deadline - now);
  const auto ms = (remaining.count() + 999'999) / 1'000'000;  // ceil
  return static_cast<int>(std::min<long long>(
      ms, std::numeric_limits<int>::max()));
}

/// The local address the kernel's routing table picks for packets to
/// `destination` (either family): connect() an unbound UDP socket and
/// read getsockname(). Sends nothing and needs no privilege. Throws
/// SystemError when the host has no route to `destination`.
[[nodiscard]] net::IpAddress route_source(const net::IpAddress& destination);

class RawSocketNetwork final : public TransportQueue {
 public:
  struct Config {
    std::chrono::milliseconds reply_timeout{1000};
    /// Socket family. The crafted probes must carry a real source
    /// address (route_source() finds it): it is in the UDP checksum, and
    /// the IPv6 reply parser reconstructs the reply's destination from it.
    net::Family family = net::Family::kIpv4;
  };

  /// The backend's counters live in `metrics` (series labeled
  /// transport="poll"); the registry must outlive the backend.
  RawSocketNetwork(Config config, obs::MetricsRegistry& metrics);
  ~RawSocketNetwork() override;

  RawSocketNetwork(const RawSocketNetwork&) = delete;
  RawSocketNetwork& operator=(const RawSocketNetwork&) = delete;

  void submit(std::span<const Datagram> window, Ticket ticket,
              const SubmitOptions& options) override;
  using TransportQueue::submit;
  [[nodiscard]] std::vector<Completion> poll_completions() override;
  void cancel(Ticket ticket) override;
  [[nodiscard]] std::size_t pending() const override;

 private:
  using Clock = ReplyAttributor::Clock;

  /// Receive datagrams per recvmmsg() batch; a poll() wakeup loops
  /// batches until the socket is dry, so this only bounds one syscall.
  static constexpr unsigned kRecvBatch = 16;

  /// Drain every datagram already queued on recv_fd_ (non-blocking
  /// recvmmsg until EAGAIN), attributing each to its pending slot.
  void drain_replies();

  void register_metrics(obs::MetricsRegistry& registry);

  Config config_;
  int send_fd_ = -1;
  int recv_fd_ = -1;
  ReplyAttributor attributor_;
  // The syscall-shape counters (the batched fast path and the
  // once-per-wakeup budget discipline are regression-tested through
  // these, not timed).
  obs::Counter* sendmmsg_calls_ = nullptr;
  obs::Counter* send_datagrams_ = nullptr;
  obs::Counter* recvmmsg_calls_ = nullptr;
  obs::Counter* recv_datagrams_ = nullptr;
  obs::Counter* poll_calls_ = nullptr;
  obs::Counter* budget_recomputes_ = nullptr;
  obs::Counter* deadline_expiries_ = nullptr;
};

}  // namespace mmlpt::probe

#endif  // MMLPT_PROBE_RAW_SOCKET_NETWORK_H
