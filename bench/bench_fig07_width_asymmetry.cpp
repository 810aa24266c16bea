// Fig. 7: distribution of max width asymmetry over measured and distinct
// diamonds. Paper: 89% of diamonds have zero asymmetry in both
// weightings, with a thin tail out to ~50.
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
  bench::print_header("Fig. 7: max width asymmetry distributions", flags,
                      seed);

  const auto result = survey::run_ip_survey(config);
  const auto& m = result.accounting.measured();
  const auto& d = result.accounting.distinct();

  AsciiTable table({"asymmetry", "measured portion", "distinct portion"});
  table.set_title("Portion of diamonds by max width asymmetry");
  for (const std::int64_t a : {0, 1, 2, 3, 4, 5, 10, 17, 20, 30, 46}) {
    table.add_row({std::to_string(a), fmt_double(m.width_asymmetry.portion(a), 4),
                   fmt_double(d.width_asymmetry.portion(a), 4)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("measured diamonds: %llu  distinct: %llu\n",
              static_cast<unsigned long long>(m.total),
              static_cast<unsigned long long>(d.total));

  bench::PaperComparison cmp("Fig. 7 width asymmetry");
  cmp.add("measured: zero asymmetry (0.89)", 0.89,
          m.width_asymmetry.portion(0), 2);
  cmp.add("distinct: zero asymmetry (0.89)", 0.89,
          d.width_asymmetry.portion(0), 2);
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
