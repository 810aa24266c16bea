// Fig. 9: CDF of the ratio of meshed hops among meshed diamonds.
// Paper: >80% of meshed diamonds have a ratio under 0.4 — i.e. even on
// meshed diamonds most hop pairs remain unmeshed and the MDA-Lite can
// realise savings there. Also reproduces the headline meshing counts
// (32,430 / 220,193 measured and 19,138 / 60,921 distinct diamonds).
#include "bench_util.h"
#include "survey/ip_survey.h"

namespace {

using namespace mmlpt;

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 1);
  survey::IpSurveyConfig config;
  config.routes = flags.get_uint("routes", 600);
  config.distinct_diamonds = flags.get_uint("distinct", 250);
  config.seed = seed;
  bench::print_header("Fig. 9: ratio of meshed hops", flags, seed);

  const auto result = survey::run_ip_survey(config);
  const auto& m = result.accounting.measured();
  const auto& d = result.accounting.distinct();

  if (!m.meshed_hop_ratio.empty() && !d.meshed_hop_ratio.empty()) {
    std::fputs(render_cdf_comparison("CDF of ratio of meshed hops "
                                     "(meshed diamonds only)",
                                     {{"measured", &m.meshed_hop_ratio},
                                      {"distinct", &d.meshed_hop_ratio}},
                                     {0.2, 0.4, 0.6, 0.8, 1.0})
                   .c_str(),
               stdout);
  }
  const double measured_meshed =
      static_cast<double>(m.meshed) / static_cast<double>(m.total);
  const double distinct_meshed =
      static_cast<double>(d.meshed) / static_cast<double>(d.total);
  std::printf("meshed diamonds: measured %llu/%llu (%.3f), "
              "distinct %llu/%llu (%.3f)\n",
              static_cast<unsigned long long>(m.meshed),
              static_cast<unsigned long long>(m.total), measured_meshed,
              static_cast<unsigned long long>(d.meshed),
              static_cast<unsigned long long>(d.total), distinct_meshed);

  bench::PaperComparison cmp("Fig. 9 meshed-hop ratio");
  cmp.add("measured meshed fraction (32430/220193 = 0.147)", 0.147,
          measured_meshed, 3);
  cmp.add("distinct meshed fraction (19138/60921 = 0.314)", 0.314,
          distinct_meshed, 3);
  if (!m.meshed_hop_ratio.empty()) {
    cmp.add("measured: ratio < 0.4 for (>0.80)", 0.80,
            m.meshed_hop_ratio.at(0.4 - 1e-9), 2);
  }
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
