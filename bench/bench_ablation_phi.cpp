// Ablation (Sec. 2.3.2): sweep the MDA-Lite's meshing-test effort phi.
// Larger phi lowers the probability of missing meshing (Eq. 1 scales as
// 1/|sigma(v)|^(phi-1)) at a modest probe cost that remains below the
// n_1 >= 9 flows per vertex the full MDA's node control requires.
#include "bench_util.h"
#include "core/validation.h"
#include "topology/metrics.h"
#include "topology/reference.h"

namespace {

using namespace mmlpt;

void experiment(const Flags& flags) {
  const int runs = static_cast<int>(flags.get_int("runs", 60));
  const std::uint64_t seed = flags.get_uint("seed", 1);
  bench::print_header("Ablation: MDA-Lite phi sweep", flags, seed);

  const auto meshed = core::plain_ground_truth(topo::fig1_meshed());
  const auto unmeshed = core::plain_ground_truth(topo::fig1_unmeshed());

  AsciiTable table({"phi", "analytic miss P", "measured switch rate",
                    "meshing probes (unmeshed)", "packets (unmeshed)"});
  table.set_title("fig1 diamonds, " + std::to_string(runs) + " runs per phi");

  bench::PaperComparison cmp("phi ablation");
  for (int phi = 2; phi <= 6; ++phi) {
    core::TraceConfig config;
    config.phi = phi;

    const auto analytic =
        topo::meshing_miss_probability(topo::fig1_meshed(), 1, phi);

    RunningStats switch_rate;
    RunningStats meshing_probes;
    RunningStats packets;
    for (int i = 0; i < runs; ++i) {
      const auto s = seed + static_cast<std::uint64_t>(i) * 31;
      switch_rate.add(
          core::run_trace(meshed, core::Algorithm::kMdaLite, config, {}, s)
                  .switched_to_mda
              ? 1.0
              : 0.0);
      const auto u =
          core::run_trace(unmeshed, core::Algorithm::kMdaLite, config, {}, s);
      meshing_probes.add(static_cast<double>(u.meshing_test_probes));
      packets.add(static_cast<double>(u.packets));
    }
    table.add_row({std::to_string(phi),
                   analytic ? fmt_double(*analytic, 4) : std::string("-"),
                   fmt_double(switch_rate.mean(), 3),
                   fmt_double(meshing_probes.mean(), 1),
                   fmt_double(packets.mean(), 1)});
    if (analytic) {
      cmp.add("phi=" + std::to_string(phi) + " detect rate (1 - Eq.1)",
              1.0 - *analytic, switch_rate.mean(), 3);
    }
  }
  std::fputs(table.render().c_str(), stdout);
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
