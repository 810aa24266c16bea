// Table 1: comparative performance on the aggregated topology — the
// union of everything discovered across all measurements, as ratios with
// respect to the first MDA run.
//
// Paper:                 Vertices  Edges   Packets
//   MDA 2                0.998     0.999   1.005
//   MDA-Lite phi=2       1.002     1.007   0.696
//   MDA-Lite phi=4       1.004     1.005   0.711
//   Single flow ID       0.537     0.201   0.040
#include "bench_util.h"
#include "survey/evaluation.h"

namespace {

using namespace mmlpt;
using survey::Variant;

void experiment(const Flags& flags) {
  const std::uint64_t seed = flags.get_uint("seed", 1);
  survey::EvaluationConfig config;
  config.pairs = flags.get_uint("pairs", 400);
  config.distinct_diamonds = flags.get_uint("distinct", 300);
  config.seed = seed;
  bench::print_header("Table 1: aggregate-topology ratios vs first MDA",
                      flags, seed);

  const auto result = survey::run_evaluation(config);

  AsciiTable table({"variant", "vertices", "edges", "packets"});
  table.set_title("Aggregated over " + std::to_string(config.pairs) +
                  " measurements");
  for (const auto v : {Variant::kMda2, Variant::kMdaLitePhi2,
                       Variant::kMdaLitePhi4, Variant::kSingleFlow}) {
    table.add_row({survey::variant_name(v),
                   fmt_double(result.aggregate_vertex_ratio(v), 3),
                   fmt_double(result.aggregate_edge_ratio(v), 3),
                   fmt_double(result.aggregate_packet_ratio(v), 3)});
  }
  std::fputs(table.render().c_str(), stdout);

  bench::PaperComparison cmp("Table 1");
  cmp.add("MDA 2 vertices", 0.998,
          result.aggregate_vertex_ratio(Variant::kMda2));
  cmp.add("MDA 2 edges", 0.999, result.aggregate_edge_ratio(Variant::kMda2));
  cmp.add("MDA 2 packets", 1.005,
          result.aggregate_packet_ratio(Variant::kMda2));
  cmp.add("Lite phi=2 vertices", 1.002,
          result.aggregate_vertex_ratio(Variant::kMdaLitePhi2));
  cmp.add("Lite phi=2 edges", 1.007,
          result.aggregate_edge_ratio(Variant::kMdaLitePhi2));
  cmp.add("Lite phi=2 packets", 0.696,
          result.aggregate_packet_ratio(Variant::kMdaLitePhi2));
  cmp.add("Lite phi=4 packets", 0.711,
          result.aggregate_packet_ratio(Variant::kMdaLitePhi4));
  cmp.add("single flow vertices", 0.537,
          result.aggregate_vertex_ratio(Variant::kSingleFlow));
  cmp.add("single flow edges", 0.201,
          result.aggregate_edge_ratio(Variant::kSingleFlow));
  cmp.add("single flow packets", 0.040,
          result.aggregate_packet_ratio(Variant::kSingleFlow));
  cmp.print();
}

}  // namespace

int main(int argc, char** argv) {
  return mmlpt::bench::run_bench_main(argc, argv, experiment);
}
