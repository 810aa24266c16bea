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
#include "orchestrator/result_sink.h"
#include "probe/cancel.h"
#include "topology/generator.h"
#include "topology/metrics.h"

namespace mmlpt::obs {
class MetricsRegistry;
}

namespace mmlpt::survey {

/// Classify the router-level fate of an IP-level diamond (Table 3).
/// `ip` and `router_level` must share the hop structure (the router-level
/// graph is the merged IP graph).
[[nodiscard]] topo::ResolutionClass classify_resolution(
    const topo::MultipathGraph& ip, const topo::MultipathGraph& router_level,
    const topo::Diamond& diamond);

struct RouterSurveyConfig {
  std::size_t routes = 200;
  std::size_t distinct_diamonds = 80;
  core::MultilevelConfig multilevel;
  fakeroute::SimConfig sim;
  topo::GeneratorConfig generator;
  std::uint64_t seed = 1;
  /// Concurrent trace workers; 1 = the historical serial path.
  int jobs = 1;
  /// Fleet-wide probe rate limit in packets/second; <= 0 = unlimited.
  double pps = 0.0;
  int burst = 64;
  /// Cooperative cancellation (SIGINT plumbing): when the token fires,
  /// in-flight tickets are canceled and run_router_survey throws
  /// probe::CanceledError. nullptr = not cancelable.
  probe::CancelToken* cancel = nullptr;
  /// Registry the fleet's limiter and the survey's sim-probe counter
  /// register in; null = uninstrumented. Must outlive the run.
  obs::MetricsRegistry* metrics = nullptr;
};

struct RouterSurveyResult {
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
  std::uint64_t total_packets = 0;
  /// Doubletree accounting, aggregated from the per-trace counters (see
  /// IpSurveyResult).
  bool stop_set_active = false;
  std::uint64_t probes_saved_by_stop_set = 0;
  std::uint64_t traces_stopped = 0;

  [[nodiscard]] double resolution_fraction(topo::ResolutionClass c) const;
};

/// Run the survey over the fleet orchestrator: routes are generated
/// serially, traced/resolved concurrently (`jobs` workers, optional
/// fleet-wide rate limit), and merged at join time in route order — the
/// dedup sets and the cross-trace union-find are order-sensitive, so the
/// merge happens exactly as the historical serial loop did. When `sink`
/// is non-null, one JSON line per destination streams out in route order.
[[nodiscard]] RouterSurveyResult run_router_survey(
    const RouterSurveyConfig& config,
    orchestrator::ResultSink* sink = nullptr);

}  // namespace mmlpt::survey

#endif  // MMLPT_SURVEY_ROUTER_SURVEY_H
