// The probing engine: crafts Paris-style UDP probes, ICMP(v6) echo probes
// for direct probing, drives the TransportQueue, parses replies, and
// keeps the packet accounting every evaluation figure relies on.
//
// The engine is address-family generic. On IPv4 the Paris flow identifier
// lives in the (source port, destination port) pair; on IPv6 it lives in
// the 20-bit flow label while the ports stay constant — across flows
// nothing but the label varies on the wire, exactly the field RFC 6438
// tells v6 load balancers to hash.
#ifndef MMLPT_PROBE_ENGINE_H
#define MMLPT_PROBE_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/icmp.h"
#include "net/ip_address.h"
#include "obs/metrics.h"
#include "probe/transport_queue.h"

namespace mmlpt::probe {

/// Abstract flow identifier. The engine maps it onto the (source port,
/// destination port) pair: the source port cycles through the high port
/// range and the destination port steps up once per cycle, so billions of
/// distinct flows are addressable even though each field is 16 bits.
using FlowId = std::uint32_t;

/// Result of one traceroute-style probe.
struct TraceProbeResult {
  bool answered = false;
  net::IpAddress responder;          ///< unspecified when unanswered
  bool from_destination = false;     ///< ICMP(v6) Port Unreachable
  std::uint16_t reply_ip_id = 0;     ///< outer header of the reply; 0 on v6
  std::uint8_t reply_ttl = 0;
  std::uint16_t probe_ip_id = 0;     ///< what we sent (echo-ID detection)
  std::vector<net::MplsLabelEntry> mpls_labels;
  Nanos send_time = 0;
  Nanos recv_time = 0;
  /// Datagrams this probe cost (1 + retries actually used). FlowCache's
  /// serial-equivalent packet accounting charges a prefetched probe this
  /// amount when the algorithm consumes it.
  int attempts = 0;
};

/// Result of one direct (echo) probe.
struct EchoProbeResult {
  bool answered = false;
  net::IpAddress responder;
  std::uint16_t reply_ip_id = 0;
  std::uint8_t reply_ttl = 0;
  std::uint16_t probe_ip_id = 0;
  Nanos send_time = 0;
  Nanos recv_time = 0;
  int attempts = 0;  ///< datagrams this probe cost (1 + retries used)
};

/// Invoke `fn` on consecutive window-sized subspans of `items`, in
/// order — the one chunking discipline every windowed sweep shares.
template <typename T, typename Fn>
void for_each_window(std::span<const T> items, std::size_t window, Fn&& fn) {
  for (std::size_t i = 0; i < items.size(); i += window) {
    fn(items.subspan(i, std::min(window, items.size() - i)));
  }
}

class ProbeEngine {
 public:
  /// Virtual time the clock advances per datagram sent: 2 ms.
  static constexpr Nanos kSendInterval = 2'000'000;

  struct Config {
    net::IpAddress source;
    net::IpAddress destination;
    std::uint16_t base_src_port = 33434;  ///< start of the source-port cycle
    std::uint16_t base_dst_port = 33434;  ///< classic traceroute port
    int max_retries = 2;              ///< retransmissions when unanswered
    /// Optional registry for retry counts and the RTT histogram; null =
    /// uninstrumented (the engine's own packet accounting is unaffected).
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// The engine drives the transport through the submit/completion
  /// queue and owns its tickets: do not interleave other submissions on
  /// the same queue object.
  ProbeEngine(TransportQueue& network, Config config);

  /// The trace's address family (source and destination always agree).
  [[nodiscard]] net::Family family() const noexcept {
    return config_.destination.family();
  }

  /// The wire-level (src_port, dst_port) encoding a flow identifier
  /// (IPv4; on IPv6 both ports are constant at their base values).
  [[nodiscard]] std::pair<std::uint16_t, std::uint16_t> flow_ports(
      FlowId flow) const noexcept;

  /// The wire-level IPv6 flow label encoding a flow identifier. Flow
  /// identifiers must fit the 20-bit label; every tracer allocates them
  /// sequentially and the node-control cap keeps them far below 2^20.
  [[nodiscard]] std::uint32_t flow_label(FlowId flow) const;

  /// Send a UDP probe with `flow` and `ttl`; retries transparently.
  [[nodiscard]] TraceProbeResult probe(FlowId flow, std::uint8_t ttl);

  /// One element of a probe window for probe_batch().
  struct ProbeRequest {
    FlowId flow = 0;
    std::uint8_t ttl = 1;
  };

  /// Send a window of UDP probes as one TransportQueue submission and
  /// drain its completions; slot i of the result answers requests[i].
  /// Retries run in rounds: after the first window, every unanswered
  /// probe is resent as a (smaller) window, up to max_retries times. The
  /// virtual clock advances kSendInterval per datagram while the window
  /// goes out, then jumps to the latest reply — the windowed counterpart
  /// of probe()'s send-then-wait accounting.
  [[nodiscard]] std::vector<TraceProbeResult> probe_batch(
      std::span<const ProbeRequest> requests);

  /// Send a window of ICMP(v6) echo requests (direct probing) as one
  /// TransportQueue submission; slot i answers targets[i]. Retries run in
  /// rounds exactly like probe_batch, and a reply that is not an Echo
  /// Reply counts as unanswered.
  [[nodiscard]] std::vector<EchoProbeResult> ping_batch(
      std::span<const net::IpAddress> targets);

  /// Total datagrams sent, including retries and echo probes.
  [[nodiscard]] std::uint64_t packets_sent() const noexcept {
    return packets_sent_;
  }
  [[nodiscard]] std::uint64_t trace_probes_sent() const noexcept {
    return trace_probes_sent_;
  }
  [[nodiscard]] std::uint64_t echo_probes_sent() const noexcept {
    return echo_probes_sent_;
  }

  [[nodiscard]] Nanos now() const noexcept { return now_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  /// One submission, fully drained: the blocking round trip every retry
  /// round uses. Slot i of the result answers window[i].
  [[nodiscard]] std::vector<std::optional<Received>> transact_window(
      std::span<const Datagram> window);

  /// The retry rounds probe_batch and ping_batch share, over `count`
  /// slots. Each round sends every pending slot in one window
  /// (`build(i, ip_id)` makes slot i's datagram), then offers each reply
  /// to `accept(i, reply, rtt, result)`; a missing or refused reply
  /// leaves the slot for the next round, up to max_retries times.
  template <typename Result, typename Build, typename Accept>
  [[nodiscard]] std::vector<Result> retry_rounds(std::size_t count,
                                                 Build&& build,
                                                 Accept&& accept);

  TransportQueue* network_;
  Config config_;
  /// Null when Config::metrics is null — instrumentation is then one
  /// pointer test per site.
  obs::Counter* retries_ = nullptr;
  obs::Histogram* rtt_seconds_ = nullptr;
  Ticket next_ticket_ = 1;
  Nanos now_ = kStartOfTime;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t trace_probes_sent_ = 0;
  std::uint64_t echo_probes_sent_ = 0;
  std::uint16_t next_probe_ip_id_ = 1;
  std::uint16_t next_echo_sequence_ = 1;

  static constexpr Nanos kStartOfTime = 1'000'000'000ULL;
};

}  // namespace mmlpt::probe

#endif  // MMLPT_PROBE_ENGINE_H
