// Ablation (Sec. 2.1): the stopping-point table n_k across failure
// bounds, and how the bound trades probe cost against discovery failure.
// Prints the Veitch et al. Table 1 values the paper quotes (9/17/25/33)
// and validates the bound empirically at several epsilons.
#include "bench_util.h"
#include "core/validation.h"
#include "fakeroute/failure.h"
#include "topology/reference.h"

namespace {

using namespace mmlpt;

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 1);
  const int runs = static_cast<int>(flags.get_int("runs", 600));
  bench::print_header("Ablation: stopping points n_k", flags, seed);

  // n_k tables at interesting parameterisations.
  AsciiTable table({"k", "eps=0.05", "eps=0.01", "alpha=.05,B=13 (Veitch)",
                    "alpha=.05,B=30 (default)"});
  table.set_title("Stopping points n_k");
  const auto e5 = core::StoppingPoints::from_epsilon(0.05);
  const auto e1 = core::StoppingPoints::from_epsilon(0.01);
  const auto veitch = core::StoppingPoints::veitch_table1();
  const auto dflt = core::StoppingPoints::for_global(0.05, 30);
  for (int k = 1; k <= 12; ++k) {
    table.add_row({std::to_string(k), std::to_string(e5.n(k)),
                   std::to_string(e1.n(k)), std::to_string(veitch.n(k)),
                   std::to_string(dflt.n(k))});
  }
  std::fputs(table.render().c_str(), stdout);

  // Cost/failure trade-off on the simplest diamond.
  AsciiTable trade({"epsilon", "theory fail", "measured fail",
                    "mean packets"});
  trade.set_title("Bound vs cost on the simplest diamond (" +
                  std::to_string(runs) + " runs each)");
  const auto truth = core::plain_ground_truth(topo::simplest_diamond());
  bench::PaperComparison cmp("stopping-point ablation");
  for (const double eps : {0.10, 0.05, 0.01, 0.001}) {
    core::TraceConfig config;
    // Encode the epsilon as (alpha = eps, B = 1).
    config.alpha = eps;
    config.max_branching = 1;
    const auto sp = core::StoppingPoints::from_epsilon(eps);
    const double theory = fakeroute::topology_failure_probability(
        truth.graph, sp.table(4));
    int failures = 0;
    RunningStats packets;
    for (int i = 0; i < runs; ++i) {
      const auto result =
          core::run_trace(truth, core::Algorithm::kMda, config, {},
                          seed + static_cast<std::uint64_t>(i));
      if (!topo::same_topology(result.graph, truth.graph)) ++failures;
      packets.add(static_cast<double>(result.packets));
    }
    const double measured = static_cast<double>(failures) / runs;
    trade.add_row({fmt_double(eps, 3), fmt_double(theory, 5),
                   fmt_double(measured, 5), fmt_double(packets.mean(), 1)});
    cmp.add("eps=" + fmt_double(eps, 3) + " empirical <= theory + noise",
            theory, measured, 4);
  }
  std::fputs(trade.render().c_str(), stdout);

  cmp.add("Veitch n1/n2/n3/n4", "9/17/25/33",
          std::to_string(veitch.n(1)) + "/" + std::to_string(veitch.n(2)) +
              "/" + std::to_string(veitch.n(3)) + "/" +
              std::to_string(veitch.n(4)));
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
