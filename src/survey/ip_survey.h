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
#include <optional>

#include "core/validation.h"
#include "obs/metrics.h"
#include "orchestrator/rate_limiter.h"
#include "orchestrator/result_sink.h"
#include "orchestrator/throttled_network.h"
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

/// The per-trace decorator stack over one trace's own transport, in its
/// one fixed order: the fleet-wide throttle charging `limiter`, then the
/// daemon's per-tenant throttle charging `tenant_limiter` (on top of —
/// never instead of — the fleet charge, so one tenant cannot starve the
/// rest), then cancellation outermost, so a fired token stops new probes
/// before they are billed and resolves in-flight tickets through
/// TransportQueue::cancel (unwinding as probe::CanceledError). A null
/// argument leaves its layer out; no layer changes an output byte.
class TraceTransport {
 public:
  TraceTransport(probe::TransportQueue& inner,
                 orchestrator::RateLimiter* limiter,
                 orchestrator::RateLimiter* tenant_limiter,
                 const probe::CancelToken* cancel)
      : top_(&inner) {
    if (limiter) top_ = &fleet_throttled_.emplace(*top_, *limiter);
    if (tenant_limiter) {
      top_ = &tenant_throttled_.emplace(*top_, *tenant_limiter);
    }
    if (cancel) top_ = &cancellable_.emplace(*top_, *cancel);
  }
  TraceTransport(const TraceTransport&) = delete;
  TraceTransport& operator=(const TraceTransport&) = delete;

  /// The outermost layer: the queue the trace's engine drives.
  [[nodiscard]] probe::TransportQueue& queue() noexcept { return *top_; }

 private:
  std::optional<orchestrator::ThrottledNetwork> fleet_throttled_;
  std::optional<orchestrator::ThrottledNetwork> tenant_throttled_;
  std::optional<probe::CancellableNetwork> cancellable_;
  probe::TransportQueue* top_;
};

/// Trace one generated route as a fleet task over a TraceTransport
/// stack. Shared by the survey, the mmlpt_fleet CLI and the mmlptd
/// daemon so the decoration path (and its determinism guarantees) live
/// in one place; `tenant_limiter` and `cancel` are the daemon-facing
/// layers and default off.
[[nodiscard]] core::TraceResult trace_route_task(
    const topo::GroundTruth& route, core::Algorithm algorithm,
    const core::TraceConfig& trace, const fakeroute::SimConfig& sim,
    std::uint64_t seed, orchestrator::RateLimiter* limiter,
    orchestrator::RateLimiter* tenant_limiter = nullptr,
    probe::CancelToken* cancel = nullptr);

}  // namespace mmlpt::survey

#endif  // MMLPT_SURVEY_IP_SURVEY_H
