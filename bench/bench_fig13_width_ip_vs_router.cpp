// Fig. 13: max width of unique diamonds before (IP level) and after
// (router level) alias resolution. Paper: the IP-level width-48 peak
// survives resolution while the width-56 peak disappears (those
// diamonds resolve into several smaller router-level diamonds).
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
  bench::print_header("Fig. 13: max width at IP level vs router level",
                      flags, seed);

  const auto result = survey::run_router_survey(config);

  AsciiTable table({"max width", "IP-level portion", "router-level portion"});
  table.set_title("Unique diamonds: " +
                  std::to_string(result.unique_diamonds));
  for (const std::int64_t w :
       {2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 56, 96}) {
    table.add_row({std::to_string(w), fmt_double(result.ip_width.portion(w), 4),
                   fmt_double(result.router_width.portion(w), 4)});
  }
  std::fputs(table.render().c_str(), stdout);

  bench::PaperComparison cmp("Fig. 13 width before/after");
  cmp.add("IP level: width-56 peak present", "yes",
          result.ip_width.portion(56) > result.ip_width.portion(55)
              ? "yes"
              : "no");
  cmp.add("router level: width-56 peak gone", "yes",
          result.router_width.portion(56) < result.ip_width.portion(56)
              ? "yes"
              : "no");
  cmp.add("width-48 peak survives", "yes",
          result.router_width.portion(48) >=
                  result.ip_width.portion(48) * 0.5
              ? "yes"
              : "no");
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
