#include "survey/route_fleet.h"

#include <optional>

#include "core/multilevel.h"
#include "core/trace_json.h"
#include "obs/metrics.h"
#include "orchestrator/throttled_network.h"
#include "probe/simulated_network.h"
#include "survey/route_feeder.h"

namespace mmlpt::survey {

namespace {

// What run_route_fleet reads off a route's result, per tracer kind: its JSONL
// payload, every packet it cost, and its IP-level trace.

std::string payload_line(std::size_t index, const std::string& label,
                         const core::TraceResult& trace) {
  return orchestrator::destination_line(
      index, label, core::stop_set_envelope_fields(trace), "trace",
      core::trace_to_json(trace));
}

std::string payload_line(std::size_t index, const std::string& label,
                         const core::MultilevelResult& ml) {
  return orchestrator::destination_line(
      index, label, core::stop_set_envelope_fields(ml), "multilevel",
      core::multilevel_to_json(ml));
}

std::uint64_t packets_of(const core::TraceResult& trace) {
  return trace.packets;
}
std::uint64_t packets_of(const core::MultilevelResult& ml) {
  return ml.total_packets;
}

const core::TraceResult& ip_trace(const core::TraceResult& trace) {
  return trace;
}
const core::TraceResult& ip_trace(const core::MultilevelResult& ml) {
  return ml.trace;
}

}  // namespace

LineFn sink_lines(orchestrator::ResultSink* sink) {
  if (sink == nullptr) return {};
  return [sink](std::size_t index, std::string line) {
    sink->emit(index, line);
  };
}

template <typename Result>
void run_route_fleet(orchestrator::FleetScheduler& fleet,
                     const RouteFleetConfig& config, RouteFleetTotals& totals,
                     const RouteTracer<Result>& tracer,
                     const RouteMerge<Result>& merge) {
  topo::SurveyWorld world(config.generator, config.distinct_diamonds,
                          config.world_seed);
  RouteFeeder feeder(world, config.routes);

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
      config.routes,
      [&](orchestrator::WorkerContext& context) {
        const auto& route = feeder.route(context.task_index);
        fakeroute::Simulator simulator(
            route, config.sim, config.sim_seed_base + context.task_index);
        probe::SimulatedNetwork network(simulator);
        // The decorators in their one fixed order: the fleet-wide
        // throttle, then the daemon's per-tenant throttle (on top of —
        // never instead of — the fleet charge, so one tenant cannot
        // starve the rest), then cancellation outermost, so a fired token
        // stops new probes before they are billed and resolves in-flight
        // tickets through TransportQueue::cancel. An absent limiter or
        // token leaves its layer out; no layer changes an output byte.
        probe::TransportQueue* queue = &network;
        std::optional<orchestrator::ThrottledNetwork> fleet_throttled;
        std::optional<orchestrator::ThrottledNetwork> tenant_throttled;
        std::optional<probe::CancellableNetwork> cancellable;
        if (context.limiter != nullptr) {
          queue = &fleet_throttled.emplace(*queue, *context.limiter);
        }
        if (config.tenant_limiter != nullptr) {
          queue = &tenant_throttled.emplace(*queue, *config.tenant_limiter);
        }
        if (config.cancel != nullptr) {
          queue = &cancellable.emplace(*queue, *config.cancel);
        }
        probe::ProbeEngine::Config engine_config;
        engine_config.source = route.source;
        engine_config.destination = route.destination;
        probe::ProbeEngine engine(*queue, engine_config);
        return tracer(engine);
      },
      [&](std::size_t i, Result& result) {
        if (config.on_line) {
          const std::string label =
              config.labels.empty() ? feeder.route(i).destination.to_string()
                                    : config.labels[i];
          config.on_line(i, payload_line(i, label, result));
        }
        totals.total_packets += packets_of(result);
        if (sim_probes != nullptr) sim_probes->add(packets_of(result));
        const core::TraceResult& trace = ip_trace(result);
        if (trace.stop_set_active) {
          totals.probes_saved_by_stop_set += trace.probes_saved_by_stop_set;
          if (saved_probes != nullptr) {
            saved_probes->add(trace.probes_saved_by_stop_set);
          }
          if (trace.stopped_on_hit) {
            ++totals.traces_stopped;
            if (stopped_traces != nullptr) stopped_traces->add();
          }
        }
        merge(i, result);
        feeder.release(i);
      });
}

template void run_route_fleet(orchestrator::FleetScheduler&,
                              const RouteFleetConfig&, RouteFleetTotals&,
                              const RouteTracer<core::TraceResult>&,
                              const RouteMerge<core::TraceResult>&);
template void run_route_fleet(orchestrator::FleetScheduler&,
                              const RouteFleetConfig&, RouteFleetTotals&,
                              const RouteTracer<core::MultilevelResult>&,
                              const RouteMerge<core::MultilevelResult>&);

}  // namespace mmlpt::survey
