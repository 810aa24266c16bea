#include "survey/ip_survey.h"

#include "survey/route_fleet.h"

namespace mmlpt::survey {

IpSurveyResult run_ip_survey(const IpSurveyConfig& config,
                             orchestrator::ResultSink* sink) {
  RouteFleetConfig run;
  run.generator = config.generator;
  run.distinct_diamonds = config.distinct_diamonds;
  run.world_seed = config.seed;
  run.routes = config.routes;
  run.sim = config.sim;
  run.sim_seed_base = ip_trace_seed(config.seed, 0);
  run.on_line = sink_lines(sink);
  run.cancel = config.cancel;

  IpSurveyResult result;
  result.accounting = DiamondAccounting(config.phi_for_meshing_analysis);
  orchestrator::FleetScheduler fleet(config);
  run_route_fleet<core::TraceResult>(
      fleet, run, result,
      [&](probe::ProbeEngine& engine) {
        return core::run_tracer(engine, config.algorithm, config.trace);
      },
      [&](std::size_t, const core::TraceResult& trace) {
        ++result.routes_traced;
        const auto diamonds = topo::extract_diamonds(trace.graph);
        if (!diamonds.empty()) ++result.routes_with_diamonds;
        for (const auto& d : diamonds) {
          result.accounting.record(trace.graph, d);
        }
      });
  return result;
}

}  // namespace mmlpt::survey
