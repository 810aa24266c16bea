// Fig. 14: joint distribution of max width before and after alias
// resolution, over the diamonds whose width changed. Paper: large width
// reductions are rare but real; the width-56 diamonds form a distinct
// vertical series as they break into much smaller router-level diamonds.
#include "bench_util.h"
#include "survey/router_survey.h"

namespace {

using namespace mmlpt;

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 1);
  survey::RouterSurveyConfig config;
  config.routes = flags.get_uint("routes", 200);
  config.distinct_diamonds = flags.get_uint("distinct", 150);
  config.generator.width_weights[15].second = 0.03;  // sample 56s reliably
  config.multilevel.rounds = static_cast<int>(flags.get_int("rounds", 6));
  config.seed = seed;
  bench::print_header("Fig. 14: joint width before vs after resolution",
                      flags, seed);

  const auto result = survey::run_router_survey(config);
  const auto& joint = result.width_before_after;

  AsciiTable table({"width before", "width after", "count"});
  table.set_title("Diamonds that changed width: " +
                  std::to_string(joint.total()));
  std::uint64_t halved_or_more = 0;
  for (const auto& [cell, count] : joint.cells()) {
    table.add_row({std::to_string(cell.first), std::to_string(cell.second),
                   std::to_string(count)});
    if (cell.second * 2 <= cell.first) halved_or_more += count;
  }
  std::fputs(table.render().c_str(), stdout);

  // Width-56 breakdown series.
  std::uint64_t from56 = 0;
  std::int64_t smallest_after56 = 0;
  for (const auto& [cell, count] : joint.cells()) {
    if (cell.first == 56) {
      from56 += count;
      if (smallest_after56 == 0 || cell.second < smallest_after56) {
        smallest_after56 = cell.second;
      }
    }
  }

  bench::PaperComparison cmp("Fig. 14 width before/after");
  cmp.add("diamonds that changed width", ">= 1",
          std::to_string(joint.total()));
  cmp.add("width-56 diamonds broken down", ">= 1", std::to_string(from56));
  if (from56 > 0) {
    cmp.add("56 -> much smaller (paper: 2..49)", "< 56",
            std::to_string(smallest_after56));
  }
  cmp.add("halved-or-more reductions exist", ">= 1",
          std::to_string(halved_or_more));
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
