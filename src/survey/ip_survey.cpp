#include "survey/ip_survey.h"

#include "core/trace_json.h"
#include "orchestrator/fleet.h"
#include "probe/simulated_network.h"
#include "survey/route_feeder.h"

namespace mmlpt::survey {

core::TraceResult trace_route_task(const topo::GroundTruth& route,
                                   core::Algorithm algorithm,
                                   const core::TraceConfig& trace,
                                   const fakeroute::SimConfig& sim,
                                   std::uint64_t seed,
                                   orchestrator::RateLimiter* limiter,
                                   orchestrator::RateLimiter* tenant_limiter,
                                   probe::CancelToken* cancel) {
  fakeroute::Simulator simulator(route, sim, seed);
  probe::SimulatedNetwork network(simulator);
  TraceTransport transport(network, limiter, tenant_limiter, cancel);
  return core::run_trace_with_network(transport.queue(), route.source,
                                      route.destination, algorithm, trace);
}

IpSurveyResult run_ip_survey(const IpSurveyConfig& config,
                             orchestrator::ResultSink* sink) {
  topo::SurveyWorld world(config.generator, config.distinct_diamonds,
                          config.seed);

  // Lazy in-order generation + per-merge release: live routes track the
  // in-flight window, not the survey size, and the route sequence is
  // identical to the historical serial loop.
  RouteFeeder feeder(world, config.routes);

  // One trace task per destination. Seeding keeps the pre-fleet serial
  // formula (base + route index), so jobs=1 is bit-identical to the
  // historical loop and jobs=N traces identically.
  //
  // The merge rides the scheduler's on_result hook: it fires in strict
  // route order (the accounting's measured/distinct split depends on
  // first-encounter order) and serialized, exactly like the historical
  // serial loop; run_streaming drops each trace right after.
  IpSurveyResult result;
  result.accounting = DiamondAccounting(config.phi_for_meshing_analysis);
  obs::Counter* sim_probes =
      config.metrics != nullptr
          ? config.metrics->counter("mmlpt_transport_probes_sent_total",
                                    "Probe packets handed to the transport",
                                    {{"transport", "sim"}})
          : nullptr;
  orchestrator::FleetScheduler fleet({.jobs = config.jobs,
                                      .pps = config.pps,
                                      .burst = config.burst,
                                      .metrics = config.metrics});
  fleet.run_streaming(
      config.routes,
      [&](orchestrator::WorkerContext& context) {
        const std::size_t i = context.task_index;
        return trace_route_task(feeder.route(i), config.algorithm,
                                config.trace, config.sim,
                                ip_trace_seed(config.seed, i),
                                context.limiter, /*tenant_limiter=*/nullptr,
                                config.cancel);
      },
      [&](std::size_t i, core::TraceResult& trace) {
        if (sink) {
          sink->emit(i, orchestrator::destination_line(
                            i, feeder.route(i).destination.to_string(),
                            core::stop_set_envelope_fields(trace), "trace",
                            core::trace_to_json(trace)));
        }
        result.total_packets += trace.packets;
        if (sim_probes != nullptr) sim_probes->add(trace.packets);
        ++result.routes_traced;
        if (trace.stop_set_active) {
          result.stop_set_active = true;
          result.probes_saved_by_stop_set += trace.probes_saved_by_stop_set;
          if (trace.stopped_on_hit) ++result.traces_stopped;
        }
        const auto diamonds = topo::extract_diamonds(trace.graph);
        if (!diamonds.empty()) ++result.routes_with_diamonds;
        for (const auto& d : diamonds) {
          result.accounting.record(trace.graph, d);
        }
        feeder.release(i);
      });
  return result;
}

}  // namespace mmlpt::survey
