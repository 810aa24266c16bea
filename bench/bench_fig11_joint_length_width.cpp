// Fig. 11: joint distribution of max length x max width.
// Paper: short-and-narrow dominates — the simplest 2x2 diamond alone is
// 24.2% of measured and 27.4% of distinct diamonds; the width-48/56
// modes appear across a variety of lengths.
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
  bench::print_header("Fig. 11: joint max length x max width", flags, seed);

  const auto result = survey::run_ip_survey(config);
  const auto& m = result.accounting.measured();
  const auto& d = result.accounting.distinct();

  // Render the top-left corner of the heatmap (small lengths/widths) plus
  // the tall-width modes.
  AsciiTable table({"length", "width", "measured portion",
                    "distinct portion"});
  table.set_title("Joint distribution (selected cells)");
  const std::pair<int, int> cells[] = {{2, 2},  {2, 3},  {2, 4}, {3, 2},
                                       {3, 3},  {4, 2},  {2, 28}, {2, 48},
                                       {3, 48}, {2, 56}, {3, 56}};
  for (const auto& [l, w] : cells) {
    table.add_row({std::to_string(l), std::to_string(w),
                   fmt_double(m.joint_length_width.portion(l, w), 4),
                   fmt_double(d.joint_length_width.portion(l, w), 4)});
  }
  std::fputs(table.render().c_str(), stdout);

  // Do the 48/56-wide diamonds appear at multiple lengths?
  int lengths_with_width48 = 0;
  for (const auto& [cell, count] : m.joint_length_width.cells()) {
    if (cell.second == 48 && count > 0) ++lengths_with_width48;
  }

  bench::PaperComparison cmp("Fig. 11 joint length x width");
  cmp.add("measured 2x2 portion (0.242)", 0.242,
          m.joint_length_width.portion(2, 2), 3);
  cmp.add("distinct 2x2 portion (0.274)", 0.274,
          d.joint_length_width.portion(2, 2), 3);
  cmp.add("width-48 at multiple lengths", ">= 2",
          std::to_string(lengths_with_width48));
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
