#include "core/mda_lite.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/assert.h"

namespace mmlpt::core {

MdaLiteTracer::MdaLiteTracer(probe::ProbeEngine& engine, TraceConfig config,
                             ReplyObserver* observer)
    : engine_(&engine),
      config_(config),
      stopping_(StoppingPoints::for_global(config.alpha,
                                           config.max_branching)),
      observer_(observer) {
  MMLPT_EXPECTS(config.phi >= 2);
}

TraceResult MdaLiteTracer::run() {
  FlowCache cache(*engine_);
  cache.set_stop_set(config_.stop_set);
  if (observer_ != nullptr) {
    cache.set_observer(
        [this](FlowId flow, int ttl, const probe::TraceProbeResult& r) {
          observer_->on_trace_reply(flow, ttl, r);
        });
  }
  DiscoveryRecorder recorder;

  const auto source = engine_->config().source;
  recorder.add_vertex(0, source, 0);

  StopSet* consult = config_.consulted_stop_set();
  bool reached = false;
  bool stopped = false;
  int destination_distance = 0;
  bool switch_to_mda = false;
  for (int h = 1; h <= config_.max_ttl && !switch_to_mda; ++h) {
    const bool at_destination = scan_hop(cache, recorder, h);
    if (recorder.vertices(h).empty()) break;  // silent hop
    complete_edges(cache, recorder, h);

    // Doubletree forward halt: the hop's windows are committed, and every
    // vertex it revealed is a confirmed hop from an earlier run — the
    // path beyond lives in the cache, so stop before paying for the
    // meshing test and the next hops. Reaching the destination wins over
    // stopping: that is the full-trace outcome.
    if (!at_destination && consult != nullptr &&
        all_in_stop_set(*consult, recorder.vertices(h), h)) {
      stopped = true;
      break;
    }

    const std::size_t prev_width = recorder.vertices(h - 1).size();
    const std::size_t width = recorder.vertices(h).size();
    if (prev_width >= 2 && width >= 2 &&
        meshing_detected(cache, recorder, h)) {
      switch_to_mda = true;
      break;
    }
    if (asymmetry_detected(recorder, h)) {
      switch_to_mda = true;
      break;
    }
    if (at_destination) {
      reached = true;
      destination_distance = h;
      break;
    }
  }

  if (switch_to_mda) {
    // Switch over to the full MDA, reusing every probe already bought.
    MdaTracer mda(*engine_, config_, observer_);
    TraceResult result = mda.run_with(cache, recorder);
    result.switched_to_mda = true;
    result.meshing_test_probes = meshing_test_probes_;
    result.node_control_probes = node_control_probes_;
    return result;
  }

  TraceResult result;
  result.graph = recorder.to_graph();
  // Cache-accounted, not an engine-counter delta: window-invariant by
  // construction even if a future edit abandons a prefetched probe.
  result.packets = cache.packets_accounted();
  result.events = recorder.events();
  result.reached_destination = reached;
  result.stopped_on_hit = stopped;
  result.meshing_test_probes = meshing_test_probes_;
  result.node_control_probes = node_control_probes_;
  finalize_stop_set(config_, engine_->config().destination,
                    destination_distance, result);
  return result;
}

bool MdaLiteTracer::scan_hop(FlowCache& cache, DiscoveryRecorder& recorder,
                             int h) {
  const auto destination = engine_->config().destination;
  const int prev = h - 1;

  // Flow identifiers to try, in the Sec. 2.3.1 order: one per previous-hop
  // vertex first, then the other flows used at the previous hop, then
  // fresh ones.
  std::vector<FlowId> queue;
  std::set<FlowId> queued;
  const auto push = [&](FlowId f) {
    if (queued.insert(f).second) queue.push_back(f);
  };
  for (const auto v : recorder.vertices(prev)) {
    const auto& flows = cache.flows_reaching(prev, v);
    if (!flows.empty()) push(flows.front());
  }
  for (const FlowId f : cache.flows_at(prev)) push(f);

  // Rounds of probe windows. n(k) only grows as replies reveal vertices,
  // so with the hop currently at k vertices and `budget` probes spent,
  // the next n(k) - budget probes are already committed no matter what
  // they return — a window of them (capped at the configured size) can go
  // out as one batched round trip, then be consumed in serial order.
  std::uint64_t budget = 0;
  std::size_t cursor = 0;
  bool all_destination = true;
  std::vector<FlowCache::ProbeRequest> requests;
  while (true) {
    const auto k = std::max<int>(
        1, static_cast<int>(recorder.vertices(h).size()));
    const auto target = static_cast<std::uint64_t>(stopping_.n(k));
    if (budget >= target) break;

    const std::uint64_t room = target - budget;
    const auto size = static_cast<std::size_t>(
        std::min<std::uint64_t>(room, window_size()));
    requests.clear();
    while (requests.size() < size) {
      const FlowId flow = cursor < queue.size() ? queue[cursor++]
                                                : cache.fresh_flow();
      if (cache.lookup(flow, h) != nullptr) continue;  // already spent at h
      requests.push_back({flow, static_cast<std::uint8_t>(h)});
    }
    cache.prefetch(requests);

    for (const auto& [flow, ttl] : requests) {
      const auto& r = cache.probe(flow, h);
      ++budget;
      if (!r.answered) continue;
      recorder.add_vertex(h, r.responder, cache.packets());
      if (r.responder != destination) all_destination = false;
      // Free edge knowledge when the flow's previous-hop position is
      // known.
      const auto* prev_result = cache.lookup(flow, prev);
      if (prev != 0 && prev_result != nullptr && prev_result->answered) {
        recorder.add_edge(prev, prev_result->responder, r.responder,
                          cache.packets());
      } else if (prev == 0) {
        recorder.add_edge(0, engine_->config().source, r.responder,
                          cache.packets());
      }
    }
  }
  return all_destination && !recorder.vertices(h).empty();
}

void MdaLiteTracer::complete_edges(FlowCache& cache,
                                   DiscoveryRecorder& recorder, int h) {
  const int prev = h - 1;
  if (prev == 0) return;  // every hop-1 vertex links to the source
  const auto& lower = recorder.vertices(prev);
  const auto& upper = recorder.vertices(h);

  const bool trace_forward = upper.size() <= lower.size();
  const bool trace_backward = upper.size() >= lower.size();

  // Each direction's probe set is fixed before its first probe goes out
  // (an iteration only adds edges at the vertex it is completing), so the
  // whole direction is one committed round: window it, then consume in
  // serial order. Backward runs after forward because forward's replies
  // can grow hop h's vertex list.
  if (trace_forward) {
    // Hop h has fewer (or equal) vertices: forward-complete from each
    // hop h-1 vertex that lacks an identified successor.
    std::vector<std::pair<net::Ipv4Address, FlowId>> work;
    std::vector<FlowId> work_flows;
    for (const auto v : lower) {
      if (recorder.successor_count(prev, v) > 0) continue;
      const auto& flows = cache.flows_reaching(prev, v);
      if (flows.empty()) continue;  // vertex seen only via lost replies
      work.emplace_back(v, flows.front());
      work_flows.push_back(flows.front());
    }
    prefetch_windowed(cache, work_flows, h);
    for (const auto& [v, flow] : work) {
      const auto& r = cache.probe(flow, h);
      if (r.answered) {
        recorder.add_vertex(h, r.responder, cache.packets());
        recorder.add_edge(prev, v, r.responder, cache.packets());
      }
    }
  }
  if (trace_backward) {
    // Hop h has more (or equal) vertices: backward-complete from each
    // hop h vertex that lacks an identified predecessor.
    std::vector<std::pair<net::Ipv4Address, FlowId>> work;
    std::vector<FlowId> work_flows;
    for (const auto v : upper) {
      if (recorder.predecessor_count(h, v) > 0) continue;
      const auto& flows = cache.flows_reaching(h, v);
      if (flows.empty()) continue;
      work.emplace_back(v, flows.front());
      work_flows.push_back(flows.front());
    }
    prefetch_windowed(cache, work_flows, prev);
    for (const auto& [v, flow] : work) {
      const auto& r = cache.probe(flow, prev);
      if (r.answered) {
        recorder.add_vertex(prev, r.responder, cache.packets());
        recorder.add_edge(prev, r.responder, v, cache.packets());
      }
    }
  }
}

void MdaLiteTracer::prefetch_windowed(FlowCache& cache,
                                      std::span<const FlowId> flows,
                                      int ttl) {
  std::vector<FlowCache::ProbeRequest> requests;
  requests.reserve(flows.size());
  for (const FlowId flow : flows) {
    requests.push_back({flow, static_cast<std::uint8_t>(ttl)});
  }
  probe::for_each_window<FlowCache::ProbeRequest>(
      requests, window_size(),
      [&](std::span<const FlowCache::ProbeRequest> window) {
        cache.prefetch(window);
      });
}

std::vector<FlowId> MdaLiteTracer::gather_flows_through(
    FlowCache& cache, DiscoveryRecorder& recorder, int ttl,
    net::Ipv4Address vertex, int needed) {
  const auto& known = cache.flows_reaching(ttl, vertex);
  if (static_cast<int>(known.size()) >= needed) {
    return {known.begin(), known.begin() + needed};
  }
  // Adaptive hunt in windowed rounds: the hunt stops as soon as `needed`
  // flows hit the vertex, and in the best case every probe hits, so only
  // needed - known probes are committed at any moment — that (capped by
  // the window and the attempt budget) is the legal round size.
  int attempts = 0;
  std::vector<FlowCache::ProbeRequest> requests;
  while (static_cast<int>(known.size()) < needed &&
         attempts < kNodeControlAttemptCap) {
    const auto committed = static_cast<std::size_t>(
        std::min(needed - static_cast<int>(known.size()),
                 kNodeControlAttemptCap - attempts));
    const auto size = std::min(committed, window_size());
    requests.clear();
    for (std::size_t i = 0; i < size; ++i) {
      requests.push_back({cache.fresh_flow(), static_cast<std::uint8_t>(ttl)});
    }
    cache.prefetch(requests);
    for (const auto& request : requests) {
      const auto& r = cache.probe(request.flow, ttl);
      ++attempts;
      ++node_control_probes_;
      if (r.answered) {
        recorder.add_vertex(ttl, r.responder, cache.packets());
      }
    }
  }
  return {known.begin(), known.end()};
}

bool MdaLiteTracer::meshing_detected(FlowCache& cache,
                                     DiscoveryRecorder& recorder, int h) {
  const int prev = h - 1;
  const auto lower = recorder.vertices(prev);   // copies: probing below can
  const auto upper = recorder.vertices(h);      // grow the recorder's lists
  // Trace from the hop with more vertices toward the one with fewer
  // (forward when equal).
  const bool forward = lower.size() >= upper.size();
  const int from_ttl = forward ? prev : h;
  const int to_ttl = forward ? h : prev;
  const auto& from_vertices = forward ? lower : upper;

  for (const auto v : from_vertices) {
    const auto flows =
        gather_flows_through(cache, recorder, from_ttl, v, config_.phi);
    // The phi probes of one vertex are all committed (the meshing verdict
    // is only read after the whole set): one windowed round.
    prefetch_windowed(cache, flows, to_ttl);
    std::set<net::Ipv4Address> seen;
    for (const FlowId f : flows) {
      const bool fresh = cache.lookup(f, to_ttl) == nullptr;
      const auto& r = cache.probe(f, to_ttl);
      if (fresh) ++meshing_test_probes_;
      if (!r.answered) continue;
      recorder.add_vertex(to_ttl, r.responder, cache.packets());
      if (forward) {
        recorder.add_edge(prev, v, r.responder, cache.packets());
      } else {
        recorder.add_edge(prev, r.responder, v, cache.packets());
      }
      seen.insert(r.responder);
    }
    if (seen.size() >= 2) return true;  // out/in-degree 2: meshed
  }
  return false;
}

bool MdaLiteTracer::asymmetry_detected(const DiscoveryRecorder& recorder,
                                       int h) const {
  const int prev = h - 1;
  const auto& lower = recorder.vertices(prev);
  const auto& upper = recorder.vertices(h);
  if (lower.size() >= 2) {
    std::size_t lo = SIZE_MAX;
    std::size_t hi = 0;
    for (const auto v : lower) {
      const auto d = recorder.successor_count(prev, v);
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    if (hi != lo) return true;
  }
  if (upper.size() >= 2) {
    std::size_t lo = SIZE_MAX;
    std::size_t hi = 0;
    for (const auto v : upper) {
      const auto d = recorder.predecessor_count(h, v);
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    if (hi != lo) return true;
  }
  return false;
}

}  // namespace mmlpt::core
