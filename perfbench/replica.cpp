#include "replica.h"

#include <map>
#include <optional>
#include <utility>

#include "core/mda_lite.h"
#include "core/multilevel.h"
#include "core/trace_json.h"
#include "obs/metrics.h"
#include "orchestrator/result_sink.h"
#include "probe/engine.h"
#include "probe/simulated_network.h"
#include "survey/ip_survey.h"
#include "topology/graph.h"

namespace perfbench {

namespace core = mmlpt::core;
namespace orch = mmlpt::orchestrator;
namespace topo = mmlpt::topo;

PassTotals& PassTotals::operator+=(const PassTotals& other) {
  destinations += other.destinations;
  packets += other.packets;
  trace_packets += other.trace_packets;
  stopped += other.stopped;
  probes_saved += other.probes_saved;
  not_reached += other.not_reached;
  topology_checked += other.topology_checked;
  topology_missed += other.topology_missed;
  return *this;
}

const topo::GroundTruth& RouteStore::get(std::size_t index) {
  std::lock_guard lock(mutex_);
  while (generated_ <= index) {
    Ledger::Scope span(ledger_, SpanKind::kRouteGen, generated_);
    routes_[generated_] = world_->next_route();
    ++generated_;
  }
  return routes_[index];
}

void RouteStore::release(std::size_t index) {
  std::lock_guard lock(mutex_);
  routes_[index] = topo::GroundTruth{};
}

namespace {

/// The probing stack one fleet task owns: Fakeroute, the timing
/// decorator, and an engine counting retries in a registry of its own
/// (a shared one would make the workers contend on its instruments).
struct TaskStack {
  TaskStack(const topo::GroundTruth& route,
            const mmlpt::fakeroute::SimConfig& sim, std::uint64_t seed,
            const Instruments& instruments)
      : retries(instruments.retries),
        simulator(route, sim, seed),
        network(simulator),
        timed(network, *instruments.ledger, *instruments.sample),
        engine(timed, engine_config(route, registry)) {}
  ~TaskStack() {
    retries->fetch_add(
        registry.counter("mmlpt_probe_retries_total", "")->value(),
        std::memory_order_relaxed);
  }
  TaskStack(const TaskStack&) = delete;
  TaskStack& operator=(const TaskStack&) = delete;

  static mmlpt::probe::ProbeEngine::Config engine_config(
      const topo::GroundTruth& route, mmlpt::obs::MetricsRegistry& registry) {
    mmlpt::probe::ProbeEngine::Config config;
    config.source = route.source;
    config.destination = route.destination;
    config.metrics = &registry;
    return config;
  }

  std::atomic<std::uint64_t>* retries;
  mmlpt::obs::MetricsRegistry registry;
  mmlpt::fakeroute::Simulator simulator;
  mmlpt::probe::SimulatedNetwork network;
  TimedQueue timed;
  mmlpt::probe::ProbeEngine engine;
};

/// The JSONL line of destination `i`, rendered as the entry points do,
/// with spans around the JSON rendering and the envelope.
template <typename Result, typename ToJson>
std::string traced_line(Ledger* ledger, std::uint64_t request, std::size_t i,
                        const std::string& label, const Result& result,
                        const char* payload_key, ToJson to_json) {
  std::string json;
  {
    Ledger::Scope span(ledger, SpanKind::kJson, request);
    json = to_json(result);
  }
  Ledger::Scope span(ledger, SpanKind::kLine, request);
  return orch::destination_line(i, label, core::stop_set_envelope_fields(result),
                                payload_key, json);
}

/// survey::run_router_survey's per-route simulator seed.
std::uint64_t router_sim_seed(const mmlpt::survey::RouterSurveyConfig& config,
                              std::size_t index) {
  return config.seed * 0x2545F491ULL + 99 + index;
}

/// Outcome bookkeeping shared by both replicas; `trace` is the IP-level
/// trace, `packets` everything the destination cost.
void account(const core::TraceResult& trace, std::uint64_t packets,
             const topo::GroundTruth& route, Ledger* ledger,
             std::uint64_t request, PassTotals& totals) {
  Ledger::Scope span(ledger, SpanKind::kCheck, request);
  ++totals.destinations;
  totals.packets += packets;
  totals.trace_packets += trace.packets;
  totals.probes_saved += trace.probes_saved_by_stop_set;
  if (trace.stopped_on_hit) {
    ++totals.stopped;
    return;  // a partial trace by design: no ground-truth comparison
  }
  if (!trace.reached_destination) ++totals.not_reached;
  ++totals.topology_checked;
  if (!topo::same_topology(trace.graph, route.graph)) ++totals.topology_missed;
}

}  // namespace

PassTotals replica_fleet_job(orch::FleetScheduler& fleet,
                             core::StopSet* stop_set,
                             const mmlpt::daemon::FleetJobSpec& spec,
                             const mmlpt::fakeroute::SimConfig& sim,
                             const Instruments& instruments,
                             std::uint64_t request_base,
                             const LineFn& on_line) {
  Ledger* ledger = instruments.ledger;
  const std::size_t count = spec.destination_count();
  topo::GeneratorConfig generator;
  generator.family = spec.family;
  generator.shared_prefix_hops = spec.shared_prefix;
  std::optional<topo::SurveyWorld> world;
  {
    Ledger::Scope span(ledger, SpanKind::kWorld, request_base);
    world.emplace(generator, spec.distinct, spec.seed);
  }
  RouteStore routes(*world, count, ledger);

  core::TraceConfig trace_config;
  trace_config.window = spec.window;
  trace_config.stop_set = stop_set;
  trace_config.consult_stop_set = true;

  PassTotals totals;
  fleet.run_streaming(
      count,
      [&](orch::WorkerContext& context) {
        const std::uint64_t request = request_base + context.task_index;
        Ledger::Scope task(ledger, SpanKind::kTask, request);
        const auto& route = routes.get(context.task_index);
        TaskStack stack(route, sim,
                        mmlpt::survey::ip_trace_seed(spec.seed,
                                                     context.task_index),
                        instruments);
        Ledger::Scope trace(ledger, SpanKind::kTrace, request);
        return core::MdaLiteTracer(stack.engine, trace_config).run();
      },
      [&](std::size_t i, core::TraceResult& trace) {
        const std::uint64_t request = request_base + i;
        Ledger::Scope callback(ledger, SpanKind::kOnResult, request);
        const auto& route = routes.get(i);
        const std::string label = spec.labels.empty()
                                      ? route.destination.to_string()
                                      : spec.labels[i];
        on_line(i, traced_line(ledger, request, i, label, trace, "trace",
                               core::trace_to_json));
        account(trace, trace.packets, route, ledger, request, totals);
        routes.release(i);
      });
  return totals;
}

PassTotals replica_router_survey(orch::FleetScheduler& fleet,
                                 const mmlpt::survey::RouterSurveyConfig& config,
                                 const Instruments& instruments,
                                 std::uint64_t request_base,
                                 const LineFn& on_line) {
  Ledger* ledger = instruments.ledger;
  std::optional<topo::SurveyWorld> world;
  {
    Ledger::Scope span(ledger, SpanKind::kWorld, request_base);
    world.emplace(config.generator, config.distinct_diamonds, config.seed);
  }
  RouteStore routes(*world, config.routes, ledger);

  PassTotals totals;
  fleet.run_streaming(
      config.routes,
      [&](orch::WorkerContext& context) {
        const std::uint64_t request = request_base + context.task_index;
        Ledger::Scope task(ledger, SpanKind::kTask, request);
        const auto& route = routes.get(context.task_index);
        TaskStack stack(route, config.sim,
                        router_sim_seed(config, context.task_index),
                        instruments);
        Ledger::Scope trace(ledger, SpanKind::kTrace, request);
        return core::MultilevelTracer(stack.engine, config.multilevel).run();
      },
      [&](std::size_t i, core::MultilevelResult& ml) {
        const std::uint64_t request = request_base + i;
        Ledger::Scope callback(ledger, SpanKind::kOnResult, request);
        const auto& route = routes.get(i);
        on_line(i, traced_line(ledger, request, i,
                               route.destination.to_string(), ml,
                               "multilevel", core::multilevel_to_json));
        account(ml.trace, ml.total_packets, route, ledger, request, totals);
        routes.release(i);
      });
  return totals;
}

void lite_rerun(orch::FleetScheduler& fleet,
                const mmlpt::survey::RouterSurveyConfig& config,
                const Instruments& instruments, std::uint64_t request_base) {
  topo::SurveyWorld world(config.generator, config.distinct_diamonds,
                          config.seed);
  RouteStore routes(world, config.routes, nullptr);
  fleet.run_streaming(
      config.routes,
      [&](orch::WorkerContext& context) {
        const auto& route = routes.get(context.task_index);
        TaskStack stack(route, config.sim,
                        router_sim_seed(config, context.task_index),
                        instruments);
        Ledger::Scope span(instruments.ledger, SpanKind::kLiteRerun,
                           request_base + context.task_index);
        return core::MdaLiteTracer(stack.engine, config.multilevel.trace)
            .run()
            .packets;
      },
      [&](std::size_t i, std::uint64_t&) { routes.release(i); });
}

LayerTimes layer_times(const Ledger& ledger) {
  const auto spans = ledger.spans();
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const auto& span : spans) {
    if (span.parent != 0) children[span.parent].emplace_back(span.start, span.end);
  }
  const auto self = [&](const Span& span) {
    const auto found = children.find(span.id);
    return static_cast<double>(
        self_time(span.start, span.end,
                  found == children.end()
                      ? std::vector<std::pair<std::int64_t, std::int64_t>>{}
                      : found->second) -
        span.leaf_ns);
  };

  LayerTimes times;
  std::map<std::uint64_t, std::int64_t> task_end;
  std::map<std::uint64_t, std::int64_t> callback_start;
  for (const auto& span : spans) {
    const auto duration = static_cast<double>(span.end - span.start);
    switch (span.kind) {
      case SpanKind::kWorld: times.world_ns += duration; break;
      case SpanKind::kRouteGen: times.gen_ns += duration; break;
      case SpanKind::kTask:
        times.orchestrator_self_ns += self(span);
        times.callback_ns += duration;
        task_end[span.request] = span.end;
        break;
      case SpanKind::kTrace:
        times.core_self_ns += self(span);
        times.trace_ns += duration;
        break;
      case SpanKind::kLiteRerun: times.lite_ns += duration; break;
      case SpanKind::kOnResult:
        times.orchestrator_self_ns += self(span);
        times.callback_ns += duration;
        callback_start[span.request] = span.start;
        ++times.lines;
        break;
      case SpanKind::kJson: times.json_ns += duration; break;
      case SpanKind::kLine: times.orchestrator_self_ns += duration; break;
      case SpanKind::kEmit: times.emit_ns += duration; break;
      case SpanKind::kCheck: times.check_ns += duration; break;
    }
  }
  for (const auto& [request, end] : task_end) {
    const auto found = callback_start.find(request);
    if (found != callback_start.end()) {
      times.reorder_wait_ms.push_back(
          static_cast<double>(std::max<std::int64_t>(0, found->second - end)) /
          1e6);
    }
  }

  const auto leaves = ledger.leaf_totals();
  const auto& submit = leaves[static_cast<std::size_t>(LeafKind::kSubmit)];
  const auto& poll = leaves[static_cast<std::size_t>(LeafKind::kPoll)];
  const auto& contains =
      leaves[static_cast<std::size_t>(LeafKind::kStopContains)];
  const auto& query = leaves[static_cast<std::size_t>(LeafKind::kStopQuery)];
  const auto& record = leaves[static_cast<std::size_t>(LeafKind::kStopRecord)];
  times.transport_ns = static_cast<double>(submit.ns + poll.ns);
  times.submits = submit.calls;
  times.datagrams = submit.items;
  times.stop_contains_ns = static_cast<double>(contains.ns);
  times.contains_calls = contains.calls;
  times.contains_hits = contains.items;
  times.stop_query_ns = static_cast<double>(query.ns);
  times.query_calls = query.calls;
  times.stop_record_ns = static_cast<double>(record.ns);
  times.record_calls = record.calls;
  return times;
}

}  // namespace perfbench
