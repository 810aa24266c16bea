// Fig. 1 / Sec. 2.1-2.3 worked example: probe cost of the MDA vs the
// MDA-Lite on the unmeshed and meshed four-vertex diamonds, under Veitch
// et al.'s Table 1 stopping points (n1=9, n2=17, n3=25, n4=33).
//
// Paper numbers: MDA spends 99 + delta probes on the unmeshed diamond and
// 163 + delta' on the meshed one; the MDA-Lite's hop scan costs
// n4 + n2 + 2*n1 = 68 on both (plus its small meshing test).
#include "bench_util.h"
#include "core/validation.h"
#include "topology/reference.h"

namespace {

using namespace mmlpt;

core::TraceConfig veitch_config() {
  core::TraceConfig config;
  config.alpha = 0.05;
  config.max_branching = 13;  // reproduces Veitch Table 1 (9/17/25/33)
  return config;
}

struct CostStats {
  RunningStats packets;
  RunningStats scan_packets;  // minus meshing-test and node-control
  RunningStats switched;
};

CostStats measure(const topo::MultipathGraph& diamond,
                  core::Algorithm algorithm, int runs, std::uint64_t seed0) {
  const auto truth = core::plain_ground_truth(
      topo::prepend_source(diamond, net::Ipv4Address(192, 168, 0, 1)));
  CostStats stats;
  for (int i = 0; i < runs; ++i) {
    const auto result = core::run_trace(truth, algorithm, veitch_config(), {},
                                        seed0 + static_cast<std::uint64_t>(i));
    stats.packets.add(static_cast<double>(result.packets));
    stats.scan_packets.add(static_cast<double>(result.packets) -
                           static_cast<double>(result.meshing_test_probes) -
                           static_cast<double>(result.node_control_probes));
    stats.switched.add(result.switched_to_mda ? 1.0 : 0.0);
  }
  return stats;
}

void experiment(const Flags& flags) {
  const int runs = static_cast<int>(flags.get_int("runs", 200));
  const std::uint64_t seed = flags.get_uint("seed", 1);
  bench::print_header("Fig. 1 worked example: MDA vs MDA-Lite probe cost",
                      flags, seed);

  const auto unmeshed = topo::fig1_unmeshed();
  const auto meshed = topo::fig1_meshed();

  const auto mda_u = measure(unmeshed, core::Algorithm::kMda, runs, seed);
  const auto mda_m = measure(meshed, core::Algorithm::kMda, runs, seed + 7);
  const auto lite_u =
      measure(unmeshed, core::Algorithm::kMdaLite, runs, seed + 13);
  const auto lite_m =
      measure(meshed, core::Algorithm::kMdaLite, runs, seed + 23);

  AsciiTable table({"algorithm", "diamond", "mean packets", "ci95",
                    "hop-scan packets", "switch rate"});
  table.set_title("Measured probe costs (" + std::to_string(runs) +
                  " runs each)");
  const auto row = [&](const char* name, const char* diamond,
                       const CostStats& s) {
    table.add_row({name, diamond, fmt_double(s.packets.mean(), 1),
                   fmt_double(s.packets.ci95_half_width(), 2),
                   fmt_double(s.scan_packets.mean(), 1),
                   fmt_double(s.switched.mean(), 2)});
  };
  row("MDA", "unmeshed", mda_u);
  row("MDA", "meshed", mda_m);
  row("MDA-Lite", "unmeshed", lite_u);
  row("MDA-Lite", "meshed", lite_m);
  std::fputs(table.render().c_str(), stdout);

  bench::PaperComparison cmp("Fig. 1 probe cost");
  cmp.add("MDA unmeshed (99 + delta)", "99+", mmlpt::fmt_double(mda_u.packets.mean(), 1));
  cmp.add("MDA meshed (163 + delta')", "163+",
          mmlpt::fmt_double(mda_m.packets.mean(), 1));
  cmp.add("MDA-Lite hop scan (68)", "68",
          mmlpt::fmt_double(lite_u.scan_packets.mean(), 1));
  cmp.add("MDA-Lite switches on meshed", "yes",
          lite_m.switched.mean() > 0.5 ? "yes" : "no");
  cmp.add("Lite/MDA packet ratio, unmeshed (~0.6-0.7)", "<= 0.77",
          mmlpt::fmt_double(lite_u.packets.mean() / mda_u.packets.mean(), 2));
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
