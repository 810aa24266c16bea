// Discovery bookkeeping shared by all tracers: the incrementally built
// topology, packet-stamped discovery events (Fig. 3's discovery curves),
// and the result type every algorithm returns.
#ifndef MMLPT_CORE_TRACE_LOG_H
#define MMLPT_CORE_TRACE_LOG_H

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/stop_set.h"
#include "net/ip_address.h"
#include "topology/graph.h"

namespace mmlpt::core {

/// One discovery milestone: after `packets` probes, a vertex or edge was
/// first seen.
struct DiscoveryEvent {
  std::uint64_t packets = 0;
  bool is_edge = false;
};

/// Incremental per-hop vertex/edge store. Hops are created on demand;
/// hop 0 is the trace source.
class DiscoveryRecorder {
 public:
  /// Record a vertex at `hop`; returns true when new. `packets` stamps
  /// the discovery event.
  bool add_vertex(int hop, net::Ipv4Address addr, std::uint64_t packets);

  /// Record an edge hop -> hop+1; returns true when new.
  bool add_edge(int hop, net::Ipv4Address from, net::Ipv4Address to,
                std::uint64_t packets);

  [[nodiscard]] int hop_count() const noexcept {
    return static_cast<int>(vertices_.size());
  }
  [[nodiscard]] const std::vector<net::Ipv4Address>& vertices(int hop) const;
  [[nodiscard]] bool has_vertex(int hop, net::Ipv4Address addr) const;
  [[nodiscard]] std::size_t successor_count(int hop,
                                            net::Ipv4Address addr) const;
  [[nodiscard]] std::size_t predecessor_count(int hop,
                                              net::Ipv4Address addr) const;
  [[nodiscard]] std::vector<net::Ipv4Address> successors(
      int hop, net::Ipv4Address addr) const;

  [[nodiscard]] const std::vector<DiscoveryEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t vertex_total() const noexcept {
    return vertex_total_;
  }
  [[nodiscard]] std::size_t edge_total() const noexcept { return edge_total_; }

  /// Materialise the discovered topology. Unreachable bookkeeping is
  /// dropped; the graph is NOT validated (partial discovery is normal).
  /// An address recorded at several hops is placed at its first hop only,
  /// and the edges touching its later occurrences are dropped.
  [[nodiscard]] topo::MultipathGraph to_graph() const;

 private:
  void ensure_hop(int hop);

  std::vector<std::vector<net::Ipv4Address>> vertices_;
  std::vector<std::set<net::Ipv4Address>> vertex_sets_;
  /// edges_[h]: set of (from, to) address pairs between hops h and h+1.
  std::vector<std::set<std::pair<net::Ipv4Address, net::Ipv4Address>>> edges_;
  std::vector<DiscoveryEvent> events_;
  std::size_t vertex_total_ = 0;
  std::size_t edge_total_ = 0;
};

/// What a tracer hands back.
struct TraceResult {
  topo::MultipathGraph graph;
  std::uint64_t packets = 0;  ///< datagrams this trace sent (incl. retries)
  std::vector<DiscoveryEvent> events;
  bool reached_destination = false;
  bool switched_to_mda = false;  ///< MDA-Lite only
  std::uint64_t meshing_test_probes = 0;
  std::uint64_t node_control_probes = 0;
  /// A stop set was CONSULTED (not merely recorded into): the trace may
  /// have stopped early, and the JSONL envelope carries the probe-savings
  /// counters. False in record-only mode so output stays byte-stable.
  bool stop_set_active = false;
  /// Forward probing halted on a confirmed-hop stop-set hit.
  bool stopped_on_hit = false;
  /// Probes the stop set saved versus the destination's prior full trace
  /// (0 when the trace ran to completion or no prior record exists).
  std::uint64_t probes_saved_by_stop_set = 0;
};

/// Cap on fresh flows generated while hunting flows through one vertex.
inline constexpr int kNodeControlAttemptCap = 20000;

/// Shared tracer tuning knobs.
struct TraceConfig {
  /// Global failure bound 0.05 across at most 30 branching vertices —
  /// the MDA's defaults per the paper.
  double alpha = 0.05;
  int max_branching = 30;
  int max_ttl = 64;
  /// MDA-Lite meshing-test effort (phi >= 2, Sec. 2.3.2).
  int phi = 2;
  /// Probe window: how many in-flight probes a tracer may assemble into
  /// one batched round trip (a TransportQueue submission). Every algorithm
  /// only windows probes its stopping rule has already committed to, so
  /// topology, packet accounting and stopping decisions are identical for
  /// every value; 1 reproduces the historical serial tracer byte for
  /// byte, larger values collapse RTT waits (latency, not probes).
  int window = 1;
  /// Fleet-wide Doubletree stop set, shared by every tracer of a run (the
  /// pointed-to object outlives all traces; implementations are
  /// thread-safe). nullptr = the feature is fully off and the tracer
  /// behaves byte-identically to builds that predate it.
  StopSet* stop_set = nullptr;
  /// With a stop set attached: false = record-only (discoveries feed the
  /// set but stopping decisions never consult it, so output is
  /// byte-identical to stop_set == nullptr — the cache-warming mode);
  /// true = full Doubletree stopping.
  bool consult_stop_set = true;

  /// The stop set to consult for stopping decisions, or nullptr.
  [[nodiscard]] StopSet* consulted_stop_set() const noexcept {
    return consult_stop_set ? stop_set : nullptr;
  }
};

/// Shared post-trace stop-set bookkeeping, called by every tracer once
/// `result.reached_destination` / `result.stopped_on_hit` / `packets`
/// are final: marks the result active (consulting runs only), computes
/// probes_saved_by_stop_set against the destination's prior full-trace
/// record, and — when this trace itself ran to the destination without
/// stopping — feeds its own record back for future runs.
/// `destination_distance` is the TTL at which the destination answered
/// (<= 0 when unknown/not reached). No-op without a stop set.
void finalize_stop_set(const TraceConfig& config, net::IpAddress destination,
                       int destination_distance, TraceResult& result);

}  // namespace mmlpt::core

#endif  // MMLPT_CORE_TRACE_LOG_H
