// Fakeroute: the paper's Sec. 3 multipath-topology simulator, rebuilt as an
// in-process packet-level engine. A probe enters as real IPv4 or IPv6
// bytes (UDP traceroute probe or ICMP(v6) echo); the simulator walks it
// through the ground-truth topology with per-flow load balancing and
// synthesises the ICMP(v6) reply a real network would produce — Time
// Exceeded / Port (Dest) Unreachable with quoted datagram, MPLS extension
// labels, fingerprint TTLs, policy-driven IP-IDs (v4; IPv6 has no
// identification field), loss, and ICMP rate limiting. The family follows
// the ground truth's addresses: v6 router models answer v6 probes with
// ICMPv6, flow identity hashing the (src, dst, flow label) 3-tuple.
//
// The original Fakeroute hooked a real tool's packets via
// libnetfilter-queue; here the probing engine hands datagrams over
// directly, exercising the same craft -> wire -> parse code path.
//
// One simulator is built per traced destination, and most traces touch
// few of the route's routers, so set-up costs only what a trace uses:
// the constructor keeps one 64-bit seed per router, and a router's
// RouterState (with its own Rng) is built the first time it answers.
// Echo targets are looked up in the ground-truth graph's address index.
#ifndef MMLPT_FAKEROUTE_SIMULATOR_H
#define MMLPT_FAKEROUTE_SIMULATOR_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "fakeroute/router_state.h"
#include "net/packet.h"
#include "topology/ground_truth.h"

namespace mmlpt::fakeroute {

struct SimConfig {
  /// Probability that a reply is silently lost (assumption-4 violation,
  /// Sec. 7 future-work extension).
  double loss_prob = 0.0;
  /// Per-router ICMP rate limit in replies/second; unset = unlimited
  /// (the paper's rate-limiting extension).
  std::optional<double> icmp_rate_limit;
  int rate_limit_burst = 8;
  /// Per-packet load balancing at every LB (assumption-2 violation).
  bool per_packet_lb = false;
  /// Per-destination load balancing: flow hash ignores ports.
  bool per_destination_lb = false;
  /// RTT model: base + per_hop * hop + U(0, jitter).
  double base_rtt_ms = 2.0;
  double per_hop_rtt_ms = 1.5;
  double jitter_ms = 0.8;
};

struct SimReply {
  std::vector<std::uint8_t> datagram;
  Nanos rtt = 0;
};

struct SimCounters {
  std::uint64_t probes_in = 0;
  std::uint64_t replies_out = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_rate_limit = 0;
  std::uint64_t dropped_unresponsive = 0;
  std::uint64_t dropped_unroutable = 0;
};

class Simulator {
 public:
  /// The ground truth must outlive the simulator.
  Simulator(const topo::GroundTruth& truth, SimConfig config,
            std::uint64_t seed);

  /// Handle one probe datagram at virtual time `now`; returns the reply
  /// (with its RTT) or nullopt when the probe elicits none.
  [[nodiscard]] std::optional<SimReply> handle(
      std::span<const std::uint8_t> probe, Nanos now);

  [[nodiscard]] const SimCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const topo::GroundTruth& truth() const noexcept {
    return *truth_;
  }

 private:
  /// Vertex the probe's flow reaches at `hop`, following per-flow load
  /// balancing decisions from hop 0.
  [[nodiscard]] topo::VertexId walk(const net::FlowTuple& flow,
                                    std::uint16_t hop);

  [[nodiscard]] std::optional<SimReply> handle_udp(
      const net::ParsedProbe& probe, std::span<const std::uint8_t> raw,
      Nanos now);
  [[nodiscard]] std::optional<SimReply> handle_echo(
      const net::ParsedProbe& probe, Nanos now);

  /// Emit a reply from `interface` (owned by `router_index`); applies
  /// responsiveness, rate limiting and loss. `hop` drives the RTT and
  /// reply-TTL model; pass 0 for direct (echo) replies. The addresses'
  /// family selects the wire family.
  [[nodiscard]] std::optional<SimReply> emit(
      std::uint32_t router_index, net::IpAddress interface,
      net::IpAddress to, std::uint16_t hop, std::uint16_t probe_ip_id,
      ReplyKind kind, const net::IcmpMessage& message, Nanos now);

  /// The router's state, built on first use from its seed.
  [[nodiscard]] RouterState& router_state(std::uint32_t router_index);
  [[nodiscard]] Nanos sample_rtt(std::uint16_t hop);

  /// One per router: the seed the constructor drew for it (in router
  /// order, so each stream equals an eager `rng_.fork()`) and its state
  /// once built. Null state until the router first answers.
  struct RouterSlot {
    std::uint64_t seed = 0;
    std::unique_ptr<RouterState> state;
  };

  const topo::GroundTruth* truth_;
  SimConfig config_;
  Rng rng_;
  std::uint64_t lb_salt_;
  std::vector<RouterSlot> routers_;
  /// One per router when SimConfig::icmp_rate_limit is set, else empty.
  std::vector<RateLimiter> limiters_;
  SimCounters counters_;
};

}  // namespace mmlpt::fakeroute

#endif  // MMLPT_FAKEROUTE_SIMULATOR_H
