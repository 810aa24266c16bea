// Table 3: what alias resolution does to each unique IP-level diamond.
// Paper: no change 0.579; single smaller diamond 0.355; multiple smaller
// diamonds 0.006; one path (diamond disappears) 0.058 — i.e. some router
// resolution takes place on 42.1% of unique diamonds.
#include "bench_util.h"
#include "survey/router_survey.h"

namespace {

using namespace mmlpt;

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 1);
  survey::RouterSurveyConfig config;
  config.routes = flags.get_uint("routes", 150);
  config.distinct_diamonds = flags.get_uint("distinct", 80);
  config.multilevel.rounds = static_cast<int>(flags.get_int("rounds", 6));
  config.seed = seed;
  bench::print_header("Table 3: effect of alias resolution on diamonds",
                      flags, seed);

  const auto result = survey::run_router_survey(config);

  AsciiTable table({"case", "fraction"});
  table.set_title("Unique diamonds: " +
                  std::to_string(result.unique_diamonds));
  table.add_row({"No change",
                 fmt_double(result.resolution_fraction(
                                topo::ResolutionClass::kNoChange), 3)});
  table.add_row({"Single smaller diamond",
                 fmt_double(result.resolution_fraction(
                                topo::ResolutionClass::kSingleSmallerDiamond),
                            3)});
  table.add_row(
      {"Multiple smaller diamonds",
       fmt_double(result.resolution_fraction(
                      topo::ResolutionClass::kMultipleSmallerDiamonds),
                  3)});
  table.add_row({"One path (no diamond)",
                 fmt_double(result.resolution_fraction(
                                topo::ResolutionClass::kOnePath), 3)});
  std::fputs(table.render().c_str(), stdout);

  bench::PaperComparison cmp("Table 3");
  cmp.add("no change (0.579)", 0.579,
          result.resolution_fraction(topo::ResolutionClass::kNoChange));
  cmp.add("single smaller (0.355)", 0.355,
          result.resolution_fraction(
              topo::ResolutionClass::kSingleSmallerDiamond));
  cmp.add("multiple smaller (0.006)", 0.006,
          result.resolution_fraction(
              topo::ResolutionClass::kMultipleSmallerDiamonds));
  cmp.add("one path (0.058)", 0.058,
          result.resolution_fraction(topo::ResolutionClass::kOnePath));
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
