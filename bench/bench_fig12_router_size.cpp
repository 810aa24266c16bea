// Fig. 12: router "size" (number of IP interfaces identified as
// belonging to one router) from the router-level survey — per-trace
// distinct routers and cross-trace aggregation by transitive closure.
// Paper: 68% of routers have size 2; 97% size <= 10; a handful exceed 50
// interfaces (aggregation reveals more of those).
#include "bench_util.h"
#include "survey/router_survey.h"

namespace {

using namespace mmlpt;

double portion_at_most(const Histogram& h, std::int64_t limit) {
  if (h.total() == 0) return 0.0;
  std::uint64_t count = 0;
  for (const auto& [k, c] : h.bins()) {
    if (k <= limit) count += c;
  }
  return static_cast<double>(count) / static_cast<double>(h.total());
}

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 1);
  survey::RouterSurveyConfig config;
  config.routes = flags.get_uint("routes", 120);
  config.distinct_diamonds = flags.get_uint("distinct", 60);
  config.multilevel.rounds =
      static_cast<int>(flags.get_int("rounds", 6));
  config.seed = seed;
  bench::print_header("Fig. 12: router sizes (distinct and aggregated)",
                      flags, seed);

  const auto result = survey::run_router_survey(config);

  AsciiTable table({"size", "distinct portion", "aggregated portion"});
  table.set_title("Router size distributions");
  for (const std::int64_t s : {2, 3, 4, 6, 8, 10, 16, 24, 48, 56}) {
    table.add_row({std::to_string(s),
                   fmt_double(result.distinct_router_size.portion(s), 3),
                   fmt_double(result.aggregated_router_size.portion(s), 3)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("distinct routers: %llu  aggregated components: %llu  "
              "packets: %llu\n",
              static_cast<unsigned long long>(
                  result.distinct_router_size.total()),
              static_cast<unsigned long long>(
                  result.aggregated_router_size.total()),
              static_cast<unsigned long long>(result.total_packets));

  bench::PaperComparison cmp("Fig. 12 router size");
  cmp.add("distinct: size 2 portion (0.68)", 0.68,
          result.distinct_router_size.portion(2), 2);
  cmp.add("distinct: size <= 10 portion (0.97)", 0.97,
          portion_at_most(result.distinct_router_size, 10), 2);
  cmp.add("aggregated: size <= 10 portion (<= distinct's)", "<= 0.97",
          fmt_double(portion_at_most(result.aggregated_router_size, 10), 2));
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
