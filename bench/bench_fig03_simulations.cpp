// Fig. 3: MDA-Lite vs MDA discovery curves on the four Sec. 2.4.1
// simulation topologies (max-length-2, symmetric, asymmetric, meshed),
// 30 Fakeroute runs each. The horizontal axis is packets sent,
// normalised so 1.0 = the MDA's total in the paired run; curves show the
// fraction of the topology's vertices (and edges) discovered.
//
// Paper shape: the MDA-Lite discovers the full topology sooner on all
// four; on max-length-2 and symmetric it stops ~40% cheaper; on
// asymmetric and meshed it switches to the full MDA and saves nothing.
#include <array>

#include "bench_util.h"
#include "core/validation.h"
#include "topology/reference.h"

namespace {

using namespace mmlpt;

double fraction_at(const std::vector<core::DiscoveryEvent>& events,
                   double budget, bool edges, std::size_t total) {
  std::size_t count = 0;
  for (const auto& e : events) {
    if (static_cast<double>(e.packets) > budget) break;
    if (e.is_edge == edges) ++count;
  }
  return total == 0 ? 0.0 : static_cast<double>(count) /
                                static_cast<double>(total);
}

void experiment(const Flags& flags) {
  const int runs = static_cast<int>(flags.get_int("runs", 30));
  const std::uint64_t seed = flags.get_uint("seed", 1);
  bench::print_header("Fig. 3: MDA-Lite vs MDA simulation discovery curves",
                      flags, seed);

  struct Topology {
    const char* name;
    topo::MultipathGraph graph;
  };
  std::array<Topology, 4> topologies{
      Topology{"max-length-2", topo::max_length_2_diamond()},
      Topology{"symmetric", topo::symmetric_diamond()},
      Topology{"asymmetric", topo::asymmetric_diamond()},
      Topology{"meshed", topo::meshed_diamond()}};

  const std::vector<double> grid{0.1, 0.2, 0.3, 0.4, 0.5,
                                 0.6, 0.7, 0.8, 0.9, 1.0};

  bench::PaperComparison cmp("Fig. 3 simulations");
  for (auto& [name, graph] : topologies) {
    const auto truth = core::plain_ground_truth(
        topo::prepend_source(graph, net::Ipv4Address(192, 168, 0, 1)));
    const auto v_total = truth.graph.vertex_count() - 1;  // minus source
    const auto e_total = truth.graph.edge_count() - 1;

    std::vector<RunningStats> mda_v(grid.size());
    std::vector<RunningStats> lite_v(grid.size());
    std::vector<RunningStats> mda_e(grid.size());
    std::vector<RunningStats> lite_e(grid.size());
    RunningStats packet_ratio;
    RunningStats switched;
    RunningStats lite_full;  // did Lite discover everything?

    for (int i = 0; i < runs; ++i) {
      const auto s = seed + static_cast<std::uint64_t>(i) * 17;
      const auto mda =
          core::run_trace(truth, core::Algorithm::kMda, {}, {}, s);
      const auto lite =
          core::run_trace(truth, core::Algorithm::kMdaLite, {}, {}, s + 7);
      const auto norm = static_cast<double>(mda.packets);
      for (std::size_t g = 0; g < grid.size(); ++g) {
        mda_v[g].add(fraction_at(mda.events, grid[g] * norm, false, v_total));
        lite_v[g].add(
            fraction_at(lite.events, grid[g] * norm, false, v_total));
        mda_e[g].add(fraction_at(mda.events, grid[g] * norm, true, e_total));
        lite_e[g].add(fraction_at(lite.events, grid[g] * norm, true, e_total));
      }
      packet_ratio.add(static_cast<double>(lite.packets) / norm);
      switched.add(lite.switched_to_mda ? 1.0 : 0.0);
      lite_full.add(topo::same_topology(lite.graph, truth.graph) ? 1.0 : 0.0);
    }

    AsciiTable table({"packets/MDA", "MDA vertices", "Lite vertices",
                      "MDA edges", "Lite edges"});
    table.set_title(std::string("--- ") + name + " diamond (" +
                    std::to_string(runs) + " runs) ---");
    for (std::size_t g = 0; g < grid.size(); ++g) {
      table.add_row({fmt_double(grid[g], 1), fmt_double(mda_v[g].mean(), 3),
                     fmt_double(lite_v[g].mean(), 3),
                     fmt_double(mda_e[g].mean(), 3),
                     fmt_double(lite_e[g].mean(), 3)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("lite/MDA packet ratio: %.3f   switch rate: %.2f   "
                "lite full-discovery rate: %.2f\n\n",
                packet_ratio.mean(), switched.mean(), lite_full.mean());

    const bool expects_switch =
        std::string(name) == "asymmetric" || std::string(name) == "meshed";
    cmp.add(std::string(name) + ": Lite switches to MDA",
            expects_switch ? "yes" : "no",
            switched.mean() > 0.5 ? "yes" : "no");
    if (!expects_switch) {
      cmp.add(std::string(name) + ": Lite probe saving (~40%)", "<= 0.75",
              fmt_double(packet_ratio.mean(), 2));
    }
    cmp.add(std::string(name) + ": Lite discovers full topology", ">= 0.9",
            fmt_double(lite_full.mean(), 2));
  }
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
