// Fig. 2: the probability that the MDA-Lite's phi=2 meshing test fails to
// detect meshing, per meshed hop pair, over the survey's measured and
// distinct diamonds (Eq. 1). Paper: miss probability <= 0.1 for ~70% of
// meshed hop pairs and <= 0.25 for ~95%, in both weightings.
#include "bench_util.h"
#include "survey/ip_survey.h"

namespace {

using namespace mmlpt;

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 1);
  survey::IpSurveyConfig config;
  config.routes = flags.get_uint("routes", 600);
  config.distinct_diamonds = flags.get_uint("distinct", 250);
  config.phi_for_meshing_analysis =
      static_cast<int>(flags.get_int("phi", 2));
  config.seed = seed;
  bench::print_header("Fig. 2: probability of failing to detect meshing",
                      flags, seed);

  const auto result = survey::run_ip_survey(config);
  const auto& measured = result.accounting.measured().meshing_miss;
  const auto& distinct = result.accounting.distinct().meshing_miss;

  std::printf("survey: %llu routes, %llu measured / %llu distinct diamonds, "
              "%llu packets\n",
              static_cast<unsigned long long>(result.routes_traced),
              static_cast<unsigned long long>(
                  result.accounting.measured().total),
              static_cast<unsigned long long>(
                  result.accounting.distinct().total),
              static_cast<unsigned long long>(result.total_packets));

  std::fputs(render_cdf_comparison(
                 "CDF of P(miss meshing), phi=" +
                     std::to_string(config.phi_for_meshing_analysis),
                 {{"measured", &measured}, {"distinct", &distinct}},
                 {0.1, 0.25, 0.5, 0.7, 0.9, 0.95, 1.0})
                 .c_str(),
             stdout);

  bench::PaperComparison cmp("Fig. 2 meshing-miss probability");
  if (!measured.empty()) {
    cmp.add("measured: portion of pairs with miss <= 0.1 (~0.70)", 0.70,
            measured.at(0.1), 2);
    cmp.add("measured: portion of pairs with miss <= 0.25 (~0.95)", 0.95,
            measured.at(0.25), 2);
  }
  if (!distinct.empty()) {
    cmp.add("distinct: portion of pairs with miss <= 0.1 (~0.70)", 0.70,
            distinct.at(0.1), 2);
    cmp.add("distinct: portion of pairs with miss <= 0.25 (~0.95)", 0.95,
            distinct.at(0.25), 2);
  }
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
