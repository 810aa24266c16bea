// Fig. 10: max length and max width distributions of measured and
// distinct diamonds. Paper: nearly half of diamonds have max length 2
// (48% measured / 45% distinct); widths reach 96 — far beyond the 16
// reported by earlier surveys — with distinctive peaks at 48 and 56.
#include "bench_util.h"
#include "survey/ip_survey.h"

namespace {

using namespace mmlpt;

void print_histogram(const char* title, const Histogram& measured,
                     const Histogram& distinct,
                     const std::vector<std::int64_t>& keys) {
  AsciiTable table({"value", "measured portion", "distinct portion"});
  table.set_title(title);
  for (const auto k : keys) {
    table.add_row({std::to_string(k), fmt_double(measured.portion(k), 4),
                   fmt_double(distinct.portion(k), 4)});
  }
  std::fputs(table.render().c_str(), stdout);
}

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 1);
  survey::IpSurveyConfig config;
  config.routes = flags.get_uint("routes", 800);
  config.distinct_diamonds = flags.get_uint("distinct", 300);
  config.seed = seed;
  bench::print_header("Fig. 10: max length and max width distributions",
                      flags, seed);

  const auto result = survey::run_ip_survey(config);
  const auto& m = result.accounting.measured();
  const auto& d = result.accounting.distinct();

  print_histogram("Max length", m.max_length, d.max_length,
                  {2, 3, 4, 5, 6, 8, 10, 15, 20});
  print_histogram("Max width", m.max_width, d.max_width,
                  {2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 56, 96});

  std::int64_t max_width_seen = 0;
  for (const auto& [w, count] : m.max_width.bins()) {
    max_width_seen = std::max(max_width_seen, w);
  }

  bench::PaperComparison cmp("Fig. 10 length & width");
  cmp.add("measured length-2 portion (0.48)", 0.48,
          m.max_length.portion(2), 2);
  cmp.add("distinct length-2 portion (0.45)", 0.45,
          d.max_length.portion(2), 2);
  cmp.add("largest max width (96)", "96", std::to_string(max_width_seen));
  cmp.add("width-48 peak present", "yes",
          m.max_width.portion(48) > m.max_width.portion(47) ? "yes" : "no");
  cmp.add("width-56 peak present", "yes",
          m.max_width.portion(56) > m.max_width.portion(55) ? "yes" : "no");
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
