// Sec. 3 validation experiment: run the real MDA implementation against
// Fakeroute's simplest diamond many times and verify the empirical
// failure rate matches the exact theoretical value. Paper: theory
// 0.03125; measured 0.03206 with a 95% CI of width 0.00156 over 50
// samples x 1000 runs (10 minutes on a 2018 laptop). Defaults here are
// scaled to 20 x 400; pass --samples/--runs for the full experiment.
#include "bench_util.h"
#include "core/validation.h"
#include "topology/reference.h"

namespace {

using namespace mmlpt;

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 42);
  core::ValidationConfig config;
  config.samples = static_cast<int>(flags.get_int("samples", 20));
  config.runs_per_sample = static_cast<int>(flags.get_int("runs", 400));
  config.trace.alpha = 0.05;
  config.trace.max_branching = 1;  // per-vertex epsilon 0.05, as in Sec. 3
  config.seed = seed;
  bench::print_header("Sec. 3: Fakeroute statistical validation of the MDA",
                      flags, seed);

  const auto truth = core::plain_ground_truth(topo::simplest_diamond());
  const auto report = core::validate(truth, config);

  std::printf("topology: simplest diamond (divergence, 2 vertices, "
              "convergence)\n");
  std::printf("samples=%d runs/sample=%d\n", report.samples,
              report.runs_per_sample);
  std::printf("theoretical failure probability: %.5f\n",
              report.theoretical_failure);
  std::printf("measured mean failure rate:      %.5f\n",
              report.mean_failure);
  std::printf("95%% confidence half-width:       %.5f\n",
              report.ci95_half_width);
  std::printf("theory within measured CI:       %s\n",
              report.consistent() ? "yes" : "no");

  // Also validate a larger topology, as the paper reports doing.
  core::ValidationConfig big = config;
  big.samples = std::max(4, config.samples / 4);
  big.runs_per_sample = std::max(100, config.runs_per_sample / 4);
  const auto big_truth = core::plain_ground_truth(topo::fig1_unmeshed());
  const auto big_report = core::validate(big_truth, big);
  std::printf("\nfig1-unmeshed: theory %.5f, measured %.5f +/- %.5f\n",
              big_report.theoretical_failure, big_report.mean_failure,
              big_report.ci95_half_width);

  bench::PaperComparison cmp("Sec. 3 Fakeroute validation");
  cmp.add("simplest diamond: theoretical failure", 0.03125,
          report.theoretical_failure, 5);
  cmp.add("simplest diamond: measured failure (paper 0.03206)", 0.03206,
          report.mean_failure, 5);
  cmp.add("theory consistent with measurement", "yes",
          report.consistent() ? "yes" : "no");
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
