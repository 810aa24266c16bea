#include "daemon/fleet_job.h"

#include <cstdio>

#include "core/trace_json.h"
#include "obs/metrics.h"
#include "orchestrator/result_sink.h"
#include "survey/accounting.h"
#include "survey/ip_survey.h"
#include "survey/route_feeder.h"
#include "topology/generator.h"

namespace mmlpt::daemon {

FleetJobCounters run_fleet_job(orchestrator::FleetScheduler& fleet,
                               orchestrator::StopSetSession* stop_set,
                               const FleetJobSpec& spec,
                               const fakeroute::SimConfig& sim,
                               const FleetJobHooks& hooks) {
  const std::size_t count = spec.destination_count();

  // The synthetic world, one route per destination — generated lazily in
  // task order a window ahead of the tracers and released after each
  // ordered merge, exactly the mmlpt_fleet discipline.
  topo::GeneratorConfig generator;
  generator.family = spec.family;
  generator.shared_prefix_hops = spec.shared_prefix;
  topo::SurveyWorld world(generator, spec.distinct, spec.seed);
  survey::RouteFeeder feeder(world, count);

  core::TraceConfig trace_config;
  trace_config.window = spec.window;
  if (stop_set != nullptr) stop_set->configure(trace_config);

  FleetJobCounters counters;
  counters.destinations = count;
  survey::DiamondAccounting accounting(2);

  // Simulated probes never touch a network backend, so the transport
  // family gets its {transport="sim"} series here, at the merge point.
  obs::Counter* sim_probes = nullptr;
  obs::Counter* saved_probes = nullptr;
  obs::Counter* stopped_traces = nullptr;
  if (auto* registry = fleet.metrics()) {
    sim_probes = registry->counter("mmlpt_transport_probes_sent_total",
                                   "Probe packets handed to the transport",
                                   {{"transport", "sim"}});
    saved_probes =
        registry->counter("mmlpt_stop_set_probes_saved_total",
                          "Probes not sent because the stop set already "
                          "knew the hop");
    stopped_traces = registry->counter(
        "mmlpt_stop_set_traces_stopped_total",
        "Traces halted early on a stop-set hit");
  }

  fleet.run_streaming(
      count,
      [&](orchestrator::WorkerContext& context) {
        return survey::trace_route_task(
            feeder.route(context.task_index), spec.algorithm, trace_config,
            sim, survey::ip_trace_seed(spec.seed, context.task_index),
            context.limiter, hooks.tenant_limiter, hooks.cancel);
      },
      [&](std::size_t i, core::TraceResult& trace) {
        const std::string label =
            spec.labels.empty() ? feeder.route(i).destination.to_string()
                                : spec.labels[i];
        if (hooks.on_line) {
          hooks.on_line(i, orchestrator::destination_line(
                               i, label, core::stop_set_envelope_fields(trace),
                               "trace", core::trace_to_json(trace)));
        }
        counters.packets += trace.packets;
        if (sim_probes != nullptr) sim_probes->add(trace.packets);
        if (trace.reached_destination) ++counters.reached;
        counters.probes_saved_by_stop_set += trace.probes_saved_by_stop_set;
        if (saved_probes != nullptr) {
          saved_probes->add(trace.probes_saved_by_stop_set);
        }
        if (trace.stop_set_active && trace.stopped_on_hit) {
          ++counters.traces_stopped;
          if (stopped_traces != nullptr) stopped_traces->add();
        }
        accounting.record_all(trace.graph);
        feeder.release(i);
        if (hooks.on_progress) hooks.on_progress(i + 1, counters);
      });

  counters.diamonds = accounting.measured().total;
  counters.distinct_diamonds = accounting.distinct().total;
  return counters;
}

std::string stop_set_summary_text(const orchestrator::SharedStopSet& stop_set,
                                  std::uint64_t probes_saved,
                                  std::uint64_t traces_stopped) {
  char buffer[192];
  std::snprintf(buffer, sizeof buffer,
                "stop-set visible_hops=%zu pending_hops=%zu "
                "probes_saved=%llu stopped=%llu union_digest=%016llx",
                stop_set.visible_hop_count(), stop_set.pending_hop_count(),
                static_cast<unsigned long long>(probes_saved),
                static_cast<unsigned long long>(traces_stopped),
                static_cast<unsigned long long>(stop_set.union_digest()));
  return buffer;
}

}  // namespace mmlpt::daemon
