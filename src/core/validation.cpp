#include "core/validation.h"

#include <algorithm>

#include "common/stats.h"
#include "core/mda_lite.h"
#include "core/single_flow.h"
#include "core/stopping_points.h"
#include "fakeroute/failure.h"
#include "probe/simulated_network.h"

namespace mmlpt::core {

TraceResult run_trace(const topo::GroundTruth& truth, Algorithm algorithm,
                      TraceConfig config, fakeroute::SimConfig sim_config,
                      std::uint64_t seed, ReplyObserver* observer) {
  fakeroute::Simulator simulator(truth, sim_config, seed);
  probe::SimulatedNetwork network(simulator);
  probe::ProbeEngine engine(
      network, {.source = truth.source, .destination = truth.destination});
  return run_tracer(engine, algorithm, config, observer);
}

TraceResult run_tracer(probe::ProbeEngine& engine, Algorithm algorithm,
                       TraceConfig config, ReplyObserver* observer) {
  switch (algorithm) {
    case Algorithm::kMda:
      return MdaTracer(engine, config, observer).run();
    case Algorithm::kMdaLite:
      return MdaLiteTracer(engine, config, observer).run();
    case Algorithm::kSingleFlow:
      return SingleFlowTracer(engine, config, observer).run();
  }
  throw ContractViolation("unknown algorithm");
}

topo::GroundTruth plain_ground_truth(topo::MultipathGraph graph) {
  topo::GroundTruth truth;
  truth.graph = std::move(graph);
  truth.vertex_router.resize(truth.graph.vertex_count());
  truth.routers.reserve(truth.graph.vertex_count());
  for (topo::VertexId v = 0; v < truth.graph.vertex_count(); ++v) {
    topo::RouterSpec spec;
    spec.id = v;
    truth.vertex_router[v] = v;
    truth.routers.push_back(spec);
  }
  truth.source = truth.graph.vertex(truth.graph.vertices_at(0)[0]).addr;
  const auto last =
      static_cast<std::uint16_t>(truth.graph.hop_count() - 1);
  truth.destination = truth.graph.vertex(truth.graph.vertices_at(last)[0]).addr;
  return truth;
}

ValidationReport validate(const topo::GroundTruth& truth,
                          const ValidationConfig& config) {
  const auto stopping =
      StoppingPoints::for_global(config.trace.alpha, config.trace.max_branching);
  int max_degree = 1;
  for (topo::VertexId v = 0; v < truth.graph.vertex_count(); ++v) {
    max_degree =
        std::max(max_degree, static_cast<int>(truth.graph.out_degree(v)));
  }

  ValidationReport report;
  report.theoretical_failure = fakeroute::topology_failure_probability(
      truth.graph, stopping.table(max_degree + 1));
  report.runs_per_sample = config.runs_per_sample;
  report.samples = config.samples;

  RunningStats sample_means;
  std::uint64_t seed = config.seed;
  for (int s = 0; s < config.samples; ++s) {
    int failures = 0;
    for (int r = 0; r < config.runs_per_sample; ++r) {
      const auto result = run_trace(truth, config.algorithm, config.trace,
                                    config.sim, seed++);
      if (!topo::same_topology(result.graph, truth.graph)) ++failures;
    }
    sample_means.add(static_cast<double>(failures) /
                     static_cast<double>(config.runs_per_sample));
  }
  report.mean_failure = sample_means.mean();
  report.ci95_half_width = sample_means.ci95_half_width();
  return report;
}

}  // namespace mmlpt::core
