// The Sec. 3 statistical validation harness: run a tracer implementation
// repeatedly against a Fakeroute topology and check that its empirical
// failure rate matches the exact theoretical failure probability, with a
// confidence interval (the paper: 50 samples x 1000 runs on the simplest
// diamond, theory 0.03125, measured 0.03206 +/- 0.00078).
//
// Also hosts the run_trace() convenience used throughout benches and
// tests: ground truth -> simulator -> engine -> tracer -> result.
#ifndef MMLPT_CORE_VALIDATION_H
#define MMLPT_CORE_VALIDATION_H

#include <cstdint>

#include "core/mda.h"
#include "core/trace_log.h"
#include "fakeroute/simulator.h"
#include "probe/transport_queue.h"
#include "topology/ground_truth.h"

namespace mmlpt::core {

enum class Algorithm : std::uint8_t { kMda, kMdaLite, kSingleFlow };

/// Trace a simulated ground truth once with the chosen algorithm.
///
/// Re-entrancy: every run builds its own simulator, network adapter and
/// engine on the stack and the TraceConfig is taken by value, so
/// concurrent calls (one per fleet worker) never share mutable state —
/// `truth` is only read.
[[nodiscard]] TraceResult run_trace(const topo::GroundTruth& truth,
                                    Algorithm algorithm, TraceConfig config,
                                    fakeroute::SimConfig sim_config,
                                    std::uint64_t seed,
                                    ReplyObserver* observer = nullptr);

/// Trace with the chosen algorithm over a ready engine: the step
/// run_trace, mmlpt_trace and the fleet's route tasks share. The engine's
/// transport queue is where callers interpose decorators (rate limiting,
/// cancellation) or a real RawSocketNetwork.
[[nodiscard]] TraceResult run_tracer(probe::ProbeEngine& engine,
                                     Algorithm algorithm, TraceConfig config,
                                     ReplyObserver* observer = nullptr);

/// Wrap a bare multipath graph (no router data) as a ground truth whose
/// routers are all independent, well-behaved responders — the Fakeroute
/// validation setting where only the discovery algorithm is under test.
[[nodiscard]] topo::GroundTruth plain_ground_truth(topo::MultipathGraph graph);

struct ValidationConfig {
  Algorithm algorithm = Algorithm::kMda;
  TraceConfig trace;
  fakeroute::SimConfig sim;
  int runs_per_sample = 1000;
  int samples = 50;
  std::uint64_t seed = 1;
};

struct ValidationReport {
  double theoretical_failure = 0.0;
  double mean_failure = 0.0;
  double ci95_half_width = 0.0;
  int runs_per_sample = 0;
  int samples = 0;

  /// Theory inside the measured confidence interval?
  [[nodiscard]] bool consistent() const noexcept {
    return theoretical_failure >= mean_failure - ci95_half_width &&
           theoretical_failure <= mean_failure + ci95_half_width;
  }
};

/// Run the harness: failure = the discovered topology differs from the
/// ground truth.
[[nodiscard]] ValidationReport validate(const topo::GroundTruth& truth,
                                        const ValidationConfig& config);

}  // namespace mmlpt::core

#endif  // MMLPT_CORE_VALIDATION_H
