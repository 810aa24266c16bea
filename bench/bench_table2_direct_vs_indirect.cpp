// Table 2: address sets identified as routers by indirect probing
// (MMLPT) or direct probing (MIDAR-style), each classified by the other
// method, expressed as portions of the union.
//
// Paper (4798 sets):        Accept-D   Reject-D   Unable-D
//   Accept-Indirect         0.365      0.005      0.283
//   Reject-Indirect         0.144      N/A        N/A
//   Unable-Indirect         0.203      N/A        N/A
#include "bench_util.h"
#include "survey/alias_eval.h"

namespace {

using namespace mmlpt;

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 1);
  survey::AliasEvalConfig config;
  config.routes = flags.get_uint("routes", 80);
  config.distinct_diamonds = flags.get_uint("distinct", 50);
  config.multilevel.rounds = static_cast<int>(flags.get_int("rounds", 5));
  config.seed = seed;
  bench::print_header("Table 2: indirect (MMLPT) vs direct (MIDAR) probing",
                      flags, seed);

  const auto result = survey::run_alias_eval(config);
  const auto& t = result.table2;

  std::printf("address sets considered: %llu (indirect accepted %llu, "
              "direct accepted %llu)\n\n",
              static_cast<unsigned long long>(t.total_sets),
              static_cast<unsigned long long>(t.indirect_accepted),
              static_cast<unsigned long long>(t.direct_accepted));

  AsciiTable table({"", "Accept Direct", "Reject Direct", "Unable Direct"});
  table.set_title("Portions of all sets identified by either method");
  table.add_row({"Accept Indirect", fmt_double(t.portion(t.accept_accept), 3),
                 fmt_double(t.portion(t.accept_indirect_reject_direct), 3),
                 fmt_double(t.portion(t.accept_indirect_unable_direct), 3)});
  table.add_row({"Reject Indirect",
                 fmt_double(t.portion(t.reject_indirect_accept_direct), 3),
                 "N/A", "N/A"});
  table.add_row({"Unable Indirect",
                 fmt_double(t.portion(t.unable_indirect_accept_direct), 3),
                 "N/A", "N/A"});
  std::fputs(table.render().c_str(), stdout);

  bench::PaperComparison cmp("Table 2");
  cmp.add("accept/accept (0.365)", 0.365, t.portion(t.accept_accept));
  cmp.add("accept-I / reject-D (0.005)", 0.005,
          t.portion(t.accept_indirect_reject_direct));
  cmp.add("accept-I / unable-D (0.283)", 0.283,
          t.portion(t.accept_indirect_unable_direct));
  cmp.add("reject-I / accept-D (0.144)", 0.144,
          t.portion(t.reject_indirect_accept_direct));
  cmp.add("unable-I / accept-D (0.203)", 0.203,
          t.portion(t.unable_indirect_accept_direct));
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
