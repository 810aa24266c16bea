// One fleet run over generated routes: the code behind the Sec. 5.1
// IP-level survey, the Sec. 5.2 router-level survey and
// daemon::run_fleet_job (which mmlpt_fleet and mmlptd share).
//
// run_route_fleet owns everything those runs have in common: the
// SurveyWorld and its RouteFeeder (routes generated lazily, in task
// order, a window ahead of the tracers, and released after each ordered
// merge), the
// per-task stack Simulator -> SimulatedNetwork -> throttles and
// cancellation -> ProbeEngine, the ordered JSONL line per destination,
// and the sim-probe and stop-set counters. A caller supplies only its
// tracer and its merge body. Task i's simulator seed is a base plus i
// and the merge runs in strict route order, so jobs=N traces and merges
// exactly like jobs=1.
#ifndef MMLPT_SURVEY_ROUTE_FLEET_H
#define MMLPT_SURVEY_ROUTE_FLEET_H

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "fakeroute/simulator.h"
#include "orchestrator/fleet.h"
#include "orchestrator/result_sink.h"
#include "probe/cancel.h"
#include "probe/engine.h"
#include "topology/generator.h"

namespace mmlpt::survey {

/// Ordered delivery of one JSONL destination line (no trailing newline).
using LineFn = std::function<void(std::size_t index, std::string line)>;

/// A LineFn writing to `sink`; empty (no lines built) when `sink` is null.
[[nodiscard]] LineFn sink_lines(orchestrator::ResultSink* sink);

/// Everything a route-fleet run needs besides its tracer and merge body.
struct RouteFleetConfig {
  topo::GeneratorConfig generator;
  std::size_t distinct_diamonds = 100;
  std::uint64_t world_seed = 1;
  std::size_t routes = 0;
  fakeroute::SimConfig sim;
  /// Task i's simulator is seeded sim_seed_base + i.
  std::uint64_t sim_seed_base = 0;
  /// Per-destination labels; empty = each route's generated destination
  /// address.
  std::span<const std::string> labels;
  /// Receives each destination's line in route order; empty = no line is
  /// built.
  LineFn on_line;
  /// Per-tenant limiter layered on the fleet-wide one; nullptr = none.
  orchestrator::RateLimiter* tenant_limiter = nullptr;
  /// Cooperative cancellation; nullptr = not cancelable.
  probe::CancelToken* cancel = nullptr;
};

/// The aggregates every caller reports, summed over the merged routes.
struct RouteFleetTotals {
  std::uint64_t total_packets = 0;
  /// Doubletree accounting, over traces that consulted a stop set.
  std::uint64_t probes_saved_by_stop_set = 0;
  std::uint64_t traces_stopped = 0;
};

/// Traces one route over its task's engine: core::TraceResult (a plain
/// trace) or core::MultilevelResult (trace plus alias resolution).
template <typename Result>
using RouteTracer = std::function<Result(probe::ProbeEngine& engine)>;

/// The caller's merge body for one route.
template <typename Result>
using RouteMerge = std::function<void(std::size_t index, Result& result)>;

/// Run `config.routes` destinations through `fleet`, adding them to
/// `totals`. `tracer` runs concurrently on the fleet's workers; `merge`
/// runs once per route after its line went out and `totals` counted it,
/// serialized and in strict route order (the callers' dedup is
/// first-encounter sensitive). The same counts go to the fleet's metrics
/// registry, when it has one. Throws probe::CanceledError when
/// config.cancel fires.
template <typename Result>
void run_route_fleet(orchestrator::FleetScheduler& fleet,
                     const RouteFleetConfig& config, RouteFleetTotals& totals,
                     const RouteTracer<Result>& tracer,
                     const RouteMerge<Result>& merge);

}  // namespace mmlpt::survey

#endif  // MMLPT_SURVEY_ROUTE_FLEET_H
