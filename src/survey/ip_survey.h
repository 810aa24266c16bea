// The Sec. 5.1 IP-level survey: trace a stream of generated routes with a
// multipath tracer and account for every diamond the tool discovers.
//
// Runs on the fleet orchestrator in three phases: (1) serial route
// generation (the generator is single-stream), (2) concurrent tracing —
// one task per destination, `jobs` workers, optional fleet-wide rate
// limit — and (3) a serial join that merges per-route diamonds into the
// accounting in route order. jobs=1 reproduces the historical serial
// survey bit for bit; jobs=N only changes wall-clock time.
#ifndef MMLPT_SURVEY_IP_SURVEY_H
#define MMLPT_SURVEY_IP_SURVEY_H

#include <cstdint>

#include "core/validation.h"
#include "obs/metrics.h"
#include "orchestrator/rate_limiter.h"
#include "orchestrator/result_sink.h"
#include "probe/cancel.h"
#include "survey/accounting.h"
#include "topology/generator.h"

namespace mmlpt::survey {

struct IpSurveyConfig {
  std::size_t routes = 1000;
  std::size_t distinct_diamonds = 300;
  core::Algorithm algorithm = core::Algorithm::kMda;
  core::TraceConfig trace;
  fakeroute::SimConfig sim;
  topo::GeneratorConfig generator;
  int phi_for_meshing_analysis = 2;
  std::uint64_t seed = 1;
  /// Concurrent trace workers; 1 = the historical serial path.
  int jobs = 1;
  /// Fleet-wide probe rate limit in packets/second; <= 0 = unlimited.
  double pps = 0.0;
  int burst = 64;
  /// Cooperative cancellation (SIGINT plumbing): when the token fires,
  /// in-flight tickets are canceled and run_ip_survey throws
  /// probe::CanceledError. nullptr = not cancelable.
  probe::CancelToken* cancel = nullptr;
  /// Registry the fleet's limiter and the survey's sim-probe counter
  /// register in; null = uninstrumented. Must outlive the run.
  obs::MetricsRegistry* metrics = nullptr;
};

struct IpSurveyResult {
  DiamondAccounting accounting{2};
  std::uint64_t routes_traced = 0;
  std::uint64_t routes_with_diamonds = 0;
  std::uint64_t total_packets = 0;
  /// Doubletree accounting, aggregated from the per-trace counters. The
  /// active flag mirrors the traces' stop_set_active (a consulted stop
  /// set was configured); zero savings with the flag set is meaningful
  /// (cold cache).
  bool stop_set_active = false;
  std::uint64_t probes_saved_by_stop_set = 0;
  std::uint64_t traces_stopped = 0;
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

/// Trace one generated route as a fleet task: plain core::run_trace when
/// undecorated, else a ThrottledNetwork stack charging `limiter`.
/// Shared by the survey, the mmlpt_fleet CLI and the mmlptd daemon so
/// the decoration path (and its determinism guarantees) live in one
/// place. Two optional daemon-facing layers stack OUTSIDE the fleet
/// decorations: `tenant_limiter` charges a per-tenant token bucket per
/// submitted probe (on top of — never instead of — the fleet-wide
/// limiter charge), and `cancel` wraps the whole stack in a
/// probe::CancellableNetwork, so a fired token resolves the trace's
/// in-flight tickets through TransportQueue::cancel and unwinds as
/// probe::CanceledError. Both default off and change no output byte.
[[nodiscard]] core::TraceResult trace_route_task(
    const topo::GroundTruth& route, core::Algorithm algorithm,
    const core::TraceConfig& trace, const fakeroute::SimConfig& sim,
    std::uint64_t seed, orchestrator::RateLimiter* limiter,
    orchestrator::RateLimiter* tenant_limiter = nullptr,
    probe::CancelToken* cancel = nullptr);

}  // namespace mmlpt::survey

#endif  // MMLPT_SURVEY_IP_SURVEY_H
