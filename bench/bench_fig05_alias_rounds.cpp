// Fig. 5: MMLPT alias resolution refined over ten rounds of probing —
// precision and recall of each round's alias sets with respect to Round
// 10, and the probe count relative to Round 0.
//
// Paper: Round 0 (trace data only) ~68% precision / ~81% recall; Round 1
// jumps to ~92% for both; slow climb afterwards; the ten extra rounds
// cost ~75% more packets than the base trace.
#include "bench_util.h"
#include "survey/alias_eval.h"

namespace {

using namespace mmlpt;

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 1);
  survey::AliasEvalConfig config;
  config.routes = flags.get_uint("routes", 60);
  config.distinct_diamonds = flags.get_uint("distinct", 40);
  config.multilevel.rounds = static_cast<int>(flags.get_int("rounds", 10));
  config.seed = seed;
  bench::print_header("Fig. 5: alias resolution over ten rounds", flags,
                      seed);

  const auto result = survey::run_alias_eval(config);
  const auto stats = survey::alias_rounds_stats(result.multilevel_results);

  AsciiTable table({"round", "precision", "recall", "probe ratio vs R0"});
  table.set_title("Alias resolution by round (" +
                  std::to_string(config.routes) + " multilevel traces)");
  for (std::size_t r = 0; r < stats.precision.size(); ++r) {
    table.add_row({std::to_string(r), fmt_double(stats.precision[r], 3),
                   fmt_double(stats.recall[r], 3),
                   fmt_double(stats.probe_ratio[r], 3)});
  }
  std::fputs(table.render().c_str(), stdout);

  bench::PaperComparison cmp("Fig. 5 alias rounds");
  cmp.add("round 0 precision (~0.68)", 0.68, stats.precision.front(), 2);
  cmp.add("round 0 recall (~0.81)", 0.81, stats.recall.front(), 2);
  if (stats.precision.size() > 1) {
    cmp.add("round 1 precision (~0.92)", 0.92, stats.precision[1], 2);
    cmp.add("round 1 recall (~0.92)", 0.92, stats.recall[1], 2);
  }
  cmp.add("final probe ratio (~1.75)", 1.75, stats.probe_ratio.back(), 2);
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
