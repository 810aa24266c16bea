#include "core/mda.h"

#include <algorithm>
#include <set>

#include "common/assert.h"

namespace mmlpt::core {

MdaTracer::MdaTracer(probe::ProbeEngine& engine, TraceConfig config,
                     ReplyObserver* observer)
    : engine_(&engine),
      config_(config),
      stopping_(StoppingPoints::for_global(config.alpha,
                                           config.max_branching)),
      observer_(observer) {}

TraceResult MdaTracer::run() {
  FlowCache cache(*engine_);
  cache.set_stop_set(config_.stop_set);
  if (observer_ != nullptr) {
    cache.set_observer(
        [this](FlowId flow, int ttl, const probe::TraceProbeResult& r) {
          observer_->on_trace_reply(flow, ttl, r);
        });
  }
  DiscoveryRecorder recorder;
  return run_with(cache, recorder);
}

TraceResult MdaTracer::run_with(FlowCache& cache,
                                DiscoveryRecorder& recorder) {
  const auto source = engine_->config().source;
  const auto destination = engine_->config().destination;
  recorder.add_vertex(0, source, 0);

  StopSet* consult = config_.consulted_stop_set();
  bool reached = false;
  bool stopped = false;
  int destination_distance = 0;
  for (int h = 1; h <= config_.max_ttl; ++h) {
    // The worklist can grow while we process it: node-control probes at
    // hop h-1 sometimes reveal new hop h-1 vertices.
    for (std::size_t i = 0; i < recorder.vertices(h - 1).size(); ++i) {
      const net::Ipv4Address v = recorder.vertices(h - 1)[i];
      if (v == destination) continue;  // the destination does not forward
      (void)discover_successors(cache, recorder, h, v);
    }
    const auto& found = recorder.vertices(h);
    if (found.empty()) break;  // silent hop: cannot steer further
    if (found.size() == 1 && found[0] == destination) {
      reached = true;
      destination_distance = h;
      break;
    }
    // Doubletree forward halt: the hop's n_k waves are committed and
    // every vertex they revealed is a confirmed hop from an earlier run.
    if (consult != nullptr && all_in_stop_set(*consult, found, h)) {
      stopped = true;
      break;
    }
  }

  TraceResult result;
  result.graph = recorder.to_graph();
  // Cache-accounted, not an engine-counter delta: window-invariant by
  // construction even if a future edit abandons a prefetched probe.
  result.packets = cache.packets_accounted();
  result.events = recorder.events();
  result.reached_destination = reached;
  result.stopped_on_hit = stopped;
  result.node_control_probes = node_control_probes_;
  finalize_stop_set(config_, destination, destination_distance, result);
  return result;
}

bool MdaTracer::discover_successors(FlowCache& cache,
                                    DiscoveryRecorder& recorder, int h,
                                    net::Ipv4Address vertex) {
  const int prev = h - 1;

  // When the previous hop holds a single vertex (the source, a divergence
  // point, or any non-branching hop), every flow passes through it: node
  // control is unnecessary and any fresh flow may be spent directly. This
  // matches the paper's cost accounting (hop 2 of Fig. 1 receives n_4
  // probes, with no verification probes at hop 1).
  const bool free_passage =
      prev == 0 || recorder.vertices(prev).size() == 1;
  const std::vector<FlowId>& through =
      free_passage ? cache.flows_at(h) : cache.flows_reaching(prev, vertex);

  std::set<net::Ipv4Address> successors;
  std::uint64_t budget = 0;  // probes counted against the stopping rule

  // Pre-scan: flows through the vertex that were already probed at h
  // (free knowledge from earlier rounds or a pre-switch MDA-Lite run).
  for (const FlowId f : through) {
    const auto* r = cache.lookup(f, h);
    if (r == nullptr) continue;
    ++budget;
    if (r->answered) {
      recorder.add_vertex(h, r->responder, cache.packets());
      recorder.add_edge(prev, vertex, r->responder, cache.packets());
      successors.insert(r->responder);
    }
  }

  // The nk waves, windowed: with k successors known and `budget` probes
  // spent, the stopping rule has already committed to n(k) - budget more
  // probes whatever they reveal (n(k) only grows), so a wave of that many
  // (capped at the configured window) ships as one batched round trip and
  // is consumed in serial order. Node-control hunts stay one probe per
  // round trip: the hunt may stop after its very next reply, so a single
  // probe is all that is ever committed.
  const auto window = static_cast<std::size_t>(std::max(1, config_.window));
  std::size_t cursor = 0;
  std::vector<FlowCache::ProbeRequest> wave;
  while (true) {
    const int k = std::max<int>(1, static_cast<int>(successors.size()));
    const auto target = static_cast<std::uint64_t>(stopping_.n(k));
    if (budget >= target) break;

    const auto room = static_cast<std::size_t>(
        std::min<std::uint64_t>(target - budget, window));
    wave.clear();
    while (wave.size() < room) {
      // Next flow through the vertex that has not been spent at hop h yet.
      std::optional<FlowId> flow;
      while (cursor < through.size()) {
        const FlowId candidate = through[cursor++];
        if (cache.lookup(candidate, h) == nullptr) {
          flow = candidate;
          break;
        }
      }
      if (!flow) {
        if (free_passage) {
          flow = cache.fresh_flow();
        } else {
          // Flush the flows already assembled before hunting: the hunt
          // probes at hop h-1 and its replies extend `through`.
          if (!wave.empty()) break;
          flow = next_flow_through(cache, recorder, prev, vertex);
          if (!flow) return false;  // node control exhausted its cap
          // The hunted flow must be spent at h before the cursor can
          // rescan `through` (serially it is probed on the spot) — a
          // one-flow wave.
          wave.push_back({*flow, static_cast<std::uint8_t>(h)});
          break;
        }
      }
      wave.push_back({*flow, static_cast<std::uint8_t>(h)});
    }
    cache.prefetch(wave);

    for (const auto& [flow, ttl] : wave) {
      const auto& r = cache.probe(flow, h);
      ++budget;
      if (r.answered) {
        recorder.add_vertex(h, r.responder, cache.packets());
        recorder.add_edge(prev, vertex, r.responder, cache.packets());
        successors.insert(r.responder);
      }
    }
  }
  return true;
}

std::optional<FlowId> MdaTracer::next_flow_through(
    FlowCache& cache, DiscoveryRecorder& recorder, int ttl,
    net::Ipv4Address vertex) {
  for (int attempt = 0; attempt < kNodeControlAttemptCap; ++attempt) {
    const FlowId f = cache.fresh_flow();
    const auto& r = cache.probe(f, ttl);
    ++node_control_probes_;
    if (!r.answered) continue;
    recorder.add_vertex(ttl, r.responder, cache.packets());
    if (r.responder == vertex) return f;
  }
  return std::nullopt;
}

}  // namespace mmlpt::core
