// Flow-indexed probe memoisation. Per-flow load balancing means a given
// (flow, ttl) pair always takes the same path, so a tracer never needs to
// re-send it; the cache also answers "which flows are known to reach
// vertex v at hop h" — the primitive behind node control and the
// MDA-Lite's flow reuse.
//
// The cache is also the seam of the window-based probing pipeline: a
// tracer assembles the probes its stopping rule has already committed to,
// hands them to prefetch() — one ProbeEngine::probe_batch call, i.e. one
// TransportQueue submission per retry round — then consumes them through probe() in the exact order a serial tracer
// would have sent them. Prefetched-but-unconsumed entries are invisible to
// lookup()/flows_at()/flows_reaching() and to the packet accounting, so
// every observable — discovered topology, discovery-event stamps, flow
// bookkeeping — is identical for every window size, and window = 1 is
// byte-identical to the historical one-probe-at-a-time path.
#ifndef MMLPT_CORE_FLOW_CACHE_H
#define MMLPT_CORE_FLOW_CACHE_H

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/stop_set.h"
#include "net/ip_address.h"
#include "probe/engine.h"

namespace mmlpt::core {

using probe::FlowId;

class FlowCache {
 public:
  using Observer = std::function<void(FlowId flow, int ttl,
                                      const probe::TraceProbeResult&)>;
  using ProbeRequest = probe::ProbeEngine::ProbeRequest;

  explicit FlowCache(probe::ProbeEngine& engine)
      : engine_(&engine),
        flows_by_ttl_(256),
        packets_base_(engine.packets_sent()) {}

  /// Called after every *fresh* answered probe (cache hits do not re-fire).
  /// With prefetching the observer fires when the probe is CONSUMED via
  /// probe(), not when its packet goes out — the serial order.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Feed every answered CONSUMED probe into the fleet stop set as a
  /// confirmed (interface, distance) pair. Consumption is the single
  /// choke point all tracers' replies pass through, and it is
  /// serial-equivalent, so the recorded set is identical for every
  /// window size (speculative prefetched-but-abandoned probes are never
  /// recorded). Recording happens whether or not the tracer consults
  /// the set — record-only mode warms the cache without touching output.
  void set_stop_set(StopSet* stop_set) { stop_set_ = stop_set; }

  /// Fill the cache for every (flow, ttl) in `requests` that has no entry
  /// yet, as ONE batched window through ProbeEngine::probe_batch (requests
  /// already fetched or consumed are skipped; duplicates within the window
  /// are sent once). The results stay unconsumed: invisible to lookup()
  /// and the flow lists, and not yet charged to packets(), until probe()
  /// consumes them.
  void prefetch(std::span<const ProbeRequest> requests);

  /// Probe (flow, ttl), memoised: a cached result is returned without
  /// sending another packet (the engine already retried unanswered ones).
  /// Consuming a prefetched entry charges its packet cost, appends it to
  /// the flow lists and fires the observer — exactly what a fresh serial
  /// probe would have done at this point.
  const probe::TraceProbeResult& probe(FlowId flow, int ttl);

  /// Cached result, if any. Prefetched entries not yet consumed through
  /// probe() are NOT visible (at the equivalent serial point they would
  /// not have been sent yet).
  [[nodiscard]] const probe::TraceProbeResult* lookup(FlowId flow,
                                                      int ttl) const;

  /// Flows already probed at `ttl`, in probe (consumption) order. Once
  /// a flow has been probed there, the returned reference stays valid and
  /// grows with later probes at `ttl`; before that it is a shared empty
  /// list that never grows.
  [[nodiscard]] const std::vector<FlowId>& flows_at(int ttl) const;

  /// Flows known (from cached probes) to reach `addr` at `ttl`. The
  /// returned reference stays valid and *grows* as further probes hit the
  /// same vertex — callers can keep a cursor into it.
  [[nodiscard]] const std::vector<FlowId>& flows_reaching(
      int ttl, net::Ipv4Address addr) const;

  /// A flow identifier never used before.
  [[nodiscard]] FlowId fresh_flow();

  [[nodiscard]] probe::ProbeEngine& engine() noexcept { return *engine_; }

  /// Serial-equivalent packet count: the engine's counter at construction
  /// plus the cost of every probe consumed so far. Equal to
  /// engine().packets_sent() whenever no prefetched probe is in flight or
  /// abandoned — in particular at every consumption point under window=1
  /// — and unlike the raw engine counter it is identical for every window
  /// size (speculative probes are charged to the wire, never to the
  /// algorithm).
  [[nodiscard]] std::uint64_t packets() const noexcept {
    return packets_base_ + packets_accounted_;
  }

  /// Probes consumed since construction (the algorithmic packet cost).
  [[nodiscard]] std::uint64_t packets_accounted() const noexcept {
    return packets_accounted_;
  }

 private:
  struct Entry {
    probe::TraceProbeResult result;
    bool consumed = false;
  };

  using ResponderKey = std::pair<int, net::Ipv4Address>;
  struct ResponderHash {
    std::size_t operator()(const ResponderKey& key) const noexcept {
      return std::hash<net::Ipv4Address>{}(key.second) * 31 +
             static_cast<std::size_t>(key.first);
    }
  };

  /// results_ key: the TTL above the 32-bit flow id.
  static std::uint64_t key(FlowId flow, int ttl) noexcept {
    return (static_cast<std::uint64_t>(ttl) << 32) | flow;
  }

  /// Consumption bookkeeping shared by the hit and miss paths of probe().
  const probe::TraceProbeResult& consume(FlowId flow, int ttl, Entry& entry);

  probe::ProbeEngine* engine_;
  Observer observer_;
  StopSet* stop_set_ = nullptr;
  // Hash maps are node-based: a rehash moves no element, so an Entry* (as
  // prefetch holds) and a flows_reaching() reference stay valid.
  std::unordered_map<std::uint64_t, Entry> results_;
  /// Indexed by TTL, all 256 made up front so none ever moves.
  std::vector<std::vector<FlowId>> flows_by_ttl_;
  /// (ttl, responder) -> flows.
  mutable std::unordered_map<ResponderKey, std::vector<FlowId>, ResponderHash>
      by_responder_;
  FlowId next_flow_ = 0;
  std::uint64_t packets_base_ = 0;
  std::uint64_t packets_accounted_ = 0;
};

}  // namespace mmlpt::core

#endif  // MMLPT_CORE_FLOW_CACHE_H
