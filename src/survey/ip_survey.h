// The Sec. 5.1 IP-level survey: trace a stream of generated routes with a
// multipath tracer and account for every diamond the tool discovers.
//
// Runs on the fleet orchestrator through survey::run_route_fleet
// (survey/route_fleet.h): routes are generated lazily in route order,
// traced concurrently — one task per destination, `jobs` workers,
// optional fleet-wide rate limit — and each trace's diamonds are merged
// into the accounting in route order. jobs=1 reproduces the historical
// serial survey bit for bit; jobs=N only changes wall-clock time.
#ifndef MMLPT_SURVEY_IP_SURVEY_H
#define MMLPT_SURVEY_IP_SURVEY_H

#include <cstdint>

#include "core/validation.h"
#include "orchestrator/fleet.h"
#include "orchestrator/result_sink.h"
#include "probe/cancel.h"
#include "survey/accounting.h"
#include "survey/route_fleet.h"
#include "topology/generator.h"

namespace mmlpt::survey {

/// The fleet settings (jobs, pps, burst, and the metrics registry the
/// fleet's limiter and the survey's sim-probe and stop-set counters
/// register in) come from FleetConfig; the survey runs its own fleet.
struct IpSurveyConfig : orchestrator::FleetConfig {
  std::size_t routes = 1000;
  std::size_t distinct_diamonds = 300;
  core::Algorithm algorithm = core::Algorithm::kMda;
  core::TraceConfig trace;
  fakeroute::SimConfig sim;
  topo::GeneratorConfig generator;
  int phi_for_meshing_analysis = 2;
  std::uint64_t seed = 1;
  /// Cooperative cancellation (SIGINT plumbing): when the token fires,
  /// in-flight tickets are canceled and run_ip_survey throws
  /// probe::CanceledError. nullptr = not cancelable.
  probe::CancelToken* cancel = nullptr;
};

/// The diamond accounting, plus the fleet's packet and stop-set totals.
struct IpSurveyResult : RouteFleetTotals {
  DiamondAccounting accounting{2};
  std::uint64_t routes_traced = 0;
  std::uint64_t routes_with_diamonds = 0;
};

/// Run the survey. When `sink` is non-null, one JSON line per destination
/// ({"index":..,"destination":..,"trace":{...}}) streams out in route
/// order while the fleet runs.
[[nodiscard]] IpSurveyResult run_ip_survey(
    const IpSurveyConfig& config, orchestrator::ResultSink* sink = nullptr);

/// The per-route trace seed: the pre-fleet serial formula, kept in one
/// place because the bit-for-bit reproducibility contract depends on it.
[[nodiscard]] inline std::uint64_t ip_trace_seed(std::uint64_t survey_seed,
                                                 std::size_t route_index) {
  return (survey_seed ^ 0x5353ULL) + route_index;
}

}  // namespace mmlpt::survey

#endif  // MMLPT_SURVEY_IP_SURVEY_H
