// Fig. 4: the Sec. 2.4.2 comparative evaluation — CDFs of per-pair
// vertex / edge / packet ratios of each tool variant against a first MDA
// run, over source-destination pairs whose routes contain diamonds.
//
// Paper shape: second MDA and both MDA-Lite variants hug ratio 1.0 for
// vertices and edges (Lite indistinguishable between phi=2 and phi=4);
// the MDA-Lite's packet-ratio curve sits clearly left of 1 (savings on
// 89% of pairs; >= 40% savings on 30%); single-flow discovers ~54% of
// vertices / ~20% of edges and sends ~4% of the packets.
#include "bench_util.h"
#include "survey/evaluation.h"

namespace {

using namespace mmlpt;
using survey::Variant;

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 1);
  survey::EvaluationConfig config;
  config.pairs = flags.get_uint("pairs", 400);
  config.distinct_diamonds = flags.get_uint("distinct", 300);
  config.seed = seed;
  bench::print_header(
      "Fig. 4: per-pair ratios vs first MDA (" +
          std::to_string(config.pairs) + " pairs; paper used 10,000)",
      flags, seed);

  const auto result = survey::run_evaluation(config);

  const std::vector<double> quantiles{0.05, 0.1, 0.25, 0.5,
                                      0.75, 0.9, 0.95, 1.0};
  const auto report = [&](const char* title,
                          double (survey::PairOutcome::*metric)(Variant)
                              const) {
    const auto mda2 = result.ratio_cdf(Variant::kMda2, metric);
    const auto lite2 = result.ratio_cdf(Variant::kMdaLitePhi2, metric);
    const auto lite4 = result.ratio_cdf(Variant::kMdaLitePhi4, metric);
    const auto single = result.ratio_cdf(Variant::kSingleFlow, metric);
    std::fputs(render_cdf_comparison(title,
                                     {{"2nd MDA", &mda2},
                                      {"Lite phi=2", &lite2},
                                      {"Lite phi=4", &lite4},
                                      {"single flow", &single}},
                                     quantiles)
                   .c_str(),
               stdout);
  };
  report("Vertex ratio vs first MDA (values at quantiles)",
         &survey::PairOutcome::vertex_ratio);
  report("Edge ratio vs first MDA", &survey::PairOutcome::edge_ratio);
  report("Packet ratio vs first MDA", &survey::PairOutcome::packet_ratio);

  // Headline shape numbers.
  const auto lite_packets =
      result.ratio_cdf(Variant::kMdaLitePhi2, &survey::PairOutcome::packet_ratio);
  const auto single_v =
      result.ratio_cdf(Variant::kSingleFlow, &survey::PairOutcome::vertex_ratio);
  const auto single_e =
      result.ratio_cdf(Variant::kSingleFlow, &survey::PairOutcome::edge_ratio);

  bench::PaperComparison cmp("Fig. 4 comparative evaluation");
  cmp.add("pairs where MDA-Lite saves packets (~0.89)", 0.89,
          lite_packets.at(1.0 - 1e-9), 2);
  cmp.add("pairs with >= 40% Lite saving (~0.30)", 0.30,
          lite_packets.at(0.6), 2);
  cmp.add("single-flow pairs with >= 90% of vertices (~0.12)", 0.12,
          1.0 - single_v.at(0.9 - 1e-9), 2);
  cmp.add("single-flow pairs with >= 90% of edges (~0.10)", 0.10,
          1.0 - single_e.at(0.9 - 1e-9), 2);
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
