// Ablation (Sec. 2.1/2.3): where the MDA's packets actually go — node
// control verification vs discovery — against the MDA-Lite's hop-by-hop
// budget, across diamond widths. This is the paper's core motivation:
// node control is the Multiple Coupon Collector cost that the MDA-Lite
// avoids on uniform unmeshed diamonds.
#include "bench_util.h"
#include "core/validation.h"
#include "topology/reference.h"

namespace {

using namespace mmlpt;

/// A uniform, unmeshed diamond of the given width and length 3
/// (divergence, W-wide hop, W/2-wide hop, convergence), which forces the
/// MDA to node-control the wide hop.
topo::MultipathGraph two_stage_diamond(int width, std::uint8_t block) {
  topo::MultipathGraph g;
  for (int h = 0; h < 4; ++h) g.add_hop();
  std::vector<topo::VertexId> wide;
  std::vector<topo::VertexId> narrow;
  const auto div = g.add_vertex(0, net::Ipv4Address(10, block, 0, 0));
  for (int i = 0; i < width; ++i) {
    wide.push_back(g.add_vertex(
        1, net::Ipv4Address(10, block, 1, static_cast<std::uint8_t>(i))));
    g.add_edge(div, wide.back());
  }
  for (int i = 0; i < width / 2; ++i) {
    narrow.push_back(g.add_vertex(
        2, net::Ipv4Address(10, block, 2, static_cast<std::uint8_t>(i))));
  }
  for (int i = 0; i < width; ++i) {
    g.add_edge(wide[static_cast<std::size_t>(i)],
               narrow[static_cast<std::size_t>(i / 2)]);
  }
  const auto conv = g.add_vertex(3, net::Ipv4Address(10, block, 3, 0));
  for (const auto v : narrow) g.add_edge(v, conv);
  g.validate();
  return g;
}

void experiment(const Flags& flags) {
  const int runs = static_cast<int>(flags.get_int("runs", 30));
  const std::uint64_t seed = flags.get_uint("seed", 1);
  bench::print_header("Ablation: node-control cost vs diamond width", flags,
                      seed);

  AsciiTable table({"width", "MDA packets", "MDA node-control", "Lite packets",
                    "Lite meshing-test", "Lite/MDA"});
  table.set_title("Uniform unmeshed length-3 diamonds, " +
                  std::to_string(runs) + " runs each");
  bench::PaperComparison cmp("node-control ablation");
  std::uint8_t block = 100;
  for (const int width : {4, 8, 16, 32, 48}) {
    const auto truth =
        core::plain_ground_truth(two_stage_diamond(width, block++));
    RunningStats mda_packets;
    RunningStats mda_nc;
    RunningStats lite_packets;
    RunningStats lite_mesh;
    for (int i = 0; i < runs; ++i) {
      const auto s = seed + static_cast<std::uint64_t>(i) * 11;
      const auto mda =
          core::run_trace(truth, core::Algorithm::kMda, {}, {}, s);
      const auto lite =
          core::run_trace(truth, core::Algorithm::kMdaLite, {}, {}, s + 3);
      mda_packets.add(static_cast<double>(mda.packets));
      mda_nc.add(static_cast<double>(mda.node_control_probes));
      lite_packets.add(static_cast<double>(lite.packets));
      lite_mesh.add(static_cast<double>(lite.meshing_test_probes));
    }
    const double ratio = lite_packets.mean() / mda_packets.mean();
    table.add_row({std::to_string(width), fmt_double(mda_packets.mean(), 0),
                   fmt_double(mda_nc.mean(), 0),
                   fmt_double(lite_packets.mean(), 0),
                   fmt_double(lite_mesh.mean(), 0), fmt_double(ratio, 3)});
    cmp.add("width " + std::to_string(width) + ": Lite saves packets",
            "< 1.0", fmt_double(ratio, 3));
  }
  std::fputs(table.render().c_str(), stdout);
  cmp.add("node-control share grows with width", "yes", "see table");
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
