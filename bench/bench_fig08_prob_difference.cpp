// Fig. 8: among asymmetric *unmeshed* diamonds (the risky case for the
// MDA-Lite, since meshing-triggered switching never happens there), the
// CDF of the maximum per-hop reach-probability difference.
// Paper: <= 0.25 for 90% of measured / 58% of distinct such diamonds;
// <= 0.5 for 99% of both.
#include "bench_util.h"
#include "survey/ip_survey.h"

namespace {

using namespace mmlpt;

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 1);
  survey::IpSurveyConfig config;
  config.routes = flags.get_uint("routes", 800);
  config.distinct_diamonds = flags.get_uint("distinct", 300);
  config.seed = seed;
  bench::print_header(
      "Fig. 8: max probability difference in width-asymmetric diamonds",
      flags, seed);

  const auto result = survey::run_ip_survey(config);
  const auto& m = result.accounting.measured();
  const auto& d = result.accounting.distinct();

  std::printf("asymmetric+unmeshed: measured %llu (%.1f%% of %llu), "
              "distinct %llu (%.1f%% of %llu)\n",
              static_cast<unsigned long long>(m.asymmetric_unmeshed),
              100.0 * static_cast<double>(m.asymmetric_unmeshed) /
                  static_cast<double>(m.total),
              static_cast<unsigned long long>(m.total),
              static_cast<unsigned long long>(d.asymmetric_unmeshed),
              100.0 * static_cast<double>(d.asymmetric_unmeshed) /
                  static_cast<double>(d.total),
              static_cast<unsigned long long>(d.total));

  if (!m.probability_difference.empty() &&
      !d.probability_difference.empty()) {
    std::fputs(render_cdf_comparison(
                   "CDF of max probability difference",
                   {{"measured", &m.probability_difference},
                    {"distinct", &d.probability_difference}},
                   {0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
                   .c_str(),
               stdout);

    bench::PaperComparison cmp("Fig. 8 probability difference");
    cmp.add("measured: portion <= 0.25 (0.90)", 0.90,
            m.probability_difference.at(0.25), 2);
    cmp.add("distinct: portion <= 0.25 (0.58)", 0.58,
            d.probability_difference.at(0.25), 2);
    cmp.add("measured: portion <= 0.5 (0.99)", 0.99,
            m.probability_difference.at(0.5), 2);
    cmp.add("distinct: portion <= 0.5 (0.99)", 0.99,
            d.probability_difference.at(0.5), 2);
    cmp.add("paper: 2.3% measured asymmetric+unmeshed", 0.023,
            static_cast<double>(m.asymmetric_unmeshed) /
                static_cast<double>(m.total),
            3);
    cmp.add("paper: 3.6% distinct asymmetric+unmeshed", 0.036,
            static_cast<double>(d.asymmetric_unmeshed) /
                static_cast<double>(d.total),
            3);
    cmp.print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
