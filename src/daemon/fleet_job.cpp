#include "daemon/fleet_job.h"

#include "survey/accounting.h"
#include "survey/ip_survey.h"
#include "survey/route_fleet.h"

namespace mmlpt::daemon {

FleetJobCounters run_fleet_job(orchestrator::FleetScheduler& fleet,
                               orchestrator::StopSetSession* stop_set,
                               const FleetJobSpec& spec,
                               const fakeroute::SimConfig& sim,
                               const FleetJobHooks& hooks) {
  survey::RouteFleetConfig run;
  run.generator.family = spec.family;
  run.generator.shared_prefix_hops = spec.shared_prefix;
  run.distinct_diamonds = spec.distinct;
  run.world_seed = spec.seed;
  run.routes = spec.destination_count();
  run.sim = sim;
  run.sim_seed_base = survey::ip_trace_seed(spec.seed, 0);
  run.labels = spec.labels;
  run.on_line = hooks.on_line;
  run.tenant_limiter = hooks.tenant_limiter;
  run.cancel = hooks.cancel;

  core::TraceConfig trace_config;
  trace_config.window = spec.window;
  if (stop_set != nullptr) stop_set->configure(trace_config);

  FleetJobCounters counters;
  counters.destinations = run.routes;
  survey::DiamondAccounting accounting(2);
  // Each merge copies the run's running totals, so on_progress sees
  // them and the last merge leaves the job's totals.
  survey::RouteFleetTotals totals;
  survey::run_route_fleet<core::TraceResult>(
      fleet, run, totals,
      [&](probe::ProbeEngine& engine) {
        return core::run_tracer(engine, spec.algorithm, trace_config);
      },
      [&](std::size_t i, const core::TraceResult& trace) {
        counters.packets = totals.total_packets;
        counters.probes_saved_by_stop_set = totals.probes_saved_by_stop_set;
        counters.traces_stopped = totals.traces_stopped;
        if (trace.reached_destination) ++counters.reached;
        accounting.record_all(trace.graph);
        if (hooks.on_progress) hooks.on_progress(i + 1, counters);
      });
  counters.diamonds = accounting.measured().total;
  counters.distinct_diamonds = accounting.distinct().total;
  return counters;
}

}  // namespace mmlpt::daemon
