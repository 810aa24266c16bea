// The Sec. 5.2 router-level survey: retrace routes with Multilevel
// MDA-Lite Paris Traceroute, collect router sizes (per-trace distinct and
// cross-trace aggregated), classify what alias resolution does to each
// unique diamond (Table 3), and record widths before/after resolution
// (Figs. 12-14).
#ifndef MMLPT_SURVEY_ROUTER_SURVEY_H
#define MMLPT_SURVEY_ROUTER_SURVEY_H

#include <cstdint>
#include <map>

#include "common/stats.h"
#include "core/multilevel.h"
#include "fakeroute/simulator.h"
#include "orchestrator/fleet.h"
#include "orchestrator/result_sink.h"
#include "probe/cancel.h"
#include "survey/route_fleet.h"
#include "topology/generator.h"
#include "topology/metrics.h"

namespace mmlpt::survey {

/// Classify the router-level fate of an IP-level diamond (Table 3).
/// `ip` and `router_level` must share the hop structure (the router-level
/// graph is the merged IP graph).
[[nodiscard]] topo::ResolutionClass classify_resolution(
    const topo::MultipathGraph& ip, const topo::MultipathGraph& router_level,
    const topo::Diamond& diamond);

/// The fleet settings come from FleetConfig (see IpSurveyConfig).
struct RouterSurveyConfig : orchestrator::FleetConfig {
  std::size_t routes = 200;
  std::size_t distinct_diamonds = 80;
  core::MultilevelConfig multilevel;
  fakeroute::SimConfig sim;
  topo::GeneratorConfig generator;
  std::uint64_t seed = 1;
  /// Cooperative cancellation (SIGINT plumbing): when the token fires,
  /// in-flight tickets are canceled and run_router_survey throws
  /// probe::CanceledError. nullptr = not cancelable.
  probe::CancelToken* cancel = nullptr;
};

/// The router-level statistics, plus the fleet's packet and stop-set
/// totals.
struct RouterSurveyResult : RouteFleetTotals {
  /// Router sizes per trace (sets deduplicated by content) — Fig. 12a.
  Histogram distinct_router_size;
  /// Sizes after cross-trace transitive closure — Fig. 12b.
  Histogram aggregated_router_size;
  /// Table 3 over unique diamonds.
  std::map<topo::ResolutionClass, std::uint64_t> resolution_counts;
  /// Fig. 13: max width of unique diamonds at both levels.
  Histogram ip_width;
  Histogram router_width;
  /// Fig. 14: joint (before, after) widths of diamonds that changed.
  Histogram2D width_before_after;
  std::uint64_t unique_diamonds = 0;
  std::uint64_t routes_traced = 0;

  [[nodiscard]] double resolution_fraction(topo::ResolutionClass c) const;
};

/// Run the survey through run_route_fleet (survey/route_fleet.h):
/// routes are generated lazily in route order, traced/resolved
/// concurrently (`jobs` workers, optional fleet-wide rate limit), and
/// merged in route order — the dedup sets and the cross-trace union-find
/// are order-sensitive, so the merge happens exactly as the historical
/// serial loop did. When `sink` is non-null, one JSON line per
/// destination streams out in route order.
[[nodiscard]] RouterSurveyResult run_router_survey(
    const RouterSurveyConfig& config,
    orchestrator::ResultSink* sink = nullptr);

}  // namespace mmlpt::survey

#endif  // MMLPT_SURVEY_ROUTER_SURVEY_H
