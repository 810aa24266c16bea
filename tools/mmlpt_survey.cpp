// mmlpt_survey — run the paper's surveys from the command line and emit
// a JSON report: the Sec. 5.1 IP-level survey (diamond statistics), the
// Sec. 2.4.2 five-variant evaluation, or the Sec. 5.2 router-level
// survey.
//
// `mmlpt_survey --help` lists invocation examples and the options.
#include <cstdio>
#include <optional>
#include <string>

#include "cli_common.h"
#include "common/error.h"
#include "common/flags.h"
#include "common/json.h"
#include "orchestrator/stop_set.h"
#include "probe/cancel.h"
#include "survey/evaluation.h"
#include "survey/ip_survey.h"
#include "survey/router_survey.h"

using namespace mmlpt;

namespace {

void emit_histogram(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  for (const auto& [key, count] : h.bins()) {
    w.key(std::to_string(key));
    w.value(count);
  }
  w.end_object();
}

/// Run one fleet survey (ip or router mode) with the plumbing both modes
/// share: the fleet, stop-set and observability flags, --output, the
/// interrupt path and the stderr summary line. `run(config, sink)` runs
/// the survey; the stdout report gets the common head (mode, transport,
/// routes) and then whatever `report(result)` writes.
/// `trace` is `config`'s trace configuration. Returns the exit code.
template <typename Config, typename Run, typename Report>
int run_fleet_survey(const Flags& flags, const char* mode, Config& config,
                     core::TraceConfig& trace, JsonWriter& w, Run run,
                     Report report) {
  const auto fleet_options = tools::parse_fleet_options(flags);
  static_cast<orchestrator::FleetConfig&>(config) = fleet_options;
  trace.window = fleet_options.window;
  orchestrator::StopSetSession stop_set_session(
      fleet_options.stop_set.topology_cache, fleet_options.stop_set.consult);
  stop_set_session.configure(trace);
  tools::ObsSession obs(tools::parse_obs_options(flags));
  stop_set_session.instrument(obs.registry());
  config.metrics = &obs.registry();
  const auto output = tools::make_output(flags);
  tools::SignalCancelScope cancel_scope;
  config.cancel = &cancel_scope.token;
  std::optional<decltype(run(config, nullptr))> maybe;
  try {
    maybe = run(config, output ? &*output->sink : nullptr);
  } catch (const probe::CanceledError&) {
    return tools::finish_interrupted("mmlpt_survey", cancel_scope,
                                     output.get(), stop_set_session, obs);
  }
  const auto& result = *maybe;
  stop_set_session.flush();
  tools::SummaryLine("mmlpt_survey")
      .field("mode", mode)
      .field("transport", "sim")
      .field("routes", result.routes_traced)
      .field("packets", result.total_packets)
      .stop_set(stop_set_session, result.probes_saved_by_stop_set,
                result.traces_stopped)
      .metrics(obs.registry())
      .print();
  obs.finish();

  w.begin_object();
  w.key("mode");
  w.value(mode);
  w.key("transport");
  w.value("sim");
  w.key("routes");
  w.value(result.routes_traced);
  report(result);
  w.end_object();
  return 0;
}

int run_ip(const Flags& flags, JsonWriter& w) {
  survey::IpSurveyConfig config;
  config.generator.family = tools::parse_family(flags);
  config.routes = flags.get_uint("routes", 500);
  config.distinct_diamonds = tools::parse_distinct(flags, 200);
  config.seed = flags.get_uint("seed", 1);
  return run_fleet_survey(
      flags, "ip_survey", config, config.trace, w, &survey::run_ip_survey,
      [&](const survey::IpSurveyResult& result) {
        w.key("routes_with_diamonds");
        w.value(result.routes_with_diamonds);
        w.key("total_packets");
        w.value(result.total_packets);
        for (const auto side : {"measured", "distinct"}) {
          const auto& d = side == std::string("measured")
                              ? result.accounting.measured()
                              : result.accounting.distinct();
          w.key(side);
          w.begin_object();
          w.key("total");
          w.value(d.total);
          w.key("meshed");
          w.value(d.meshed);
          w.key("asymmetric");
          w.value(d.asymmetric);
          w.key("length2");
          w.value(d.length2);
          w.key("max_width_histogram");
          emit_histogram(w, d.max_width);
          w.key("max_length_histogram");
          emit_histogram(w, d.max_length);
          w.key("width_asymmetry_histogram");
          emit_histogram(w, d.width_asymmetry);
          w.end_object();
        }
      });
}

int run_evaluation(const Flags& flags, JsonWriter& w) {
  // The evaluation runs five tracer variants over shared per-pair state;
  // it is not fleet-wired (yet), so say so instead of silently ignoring
  // the fleet flags.
  for (const char* flag :
       {"jobs", "pps", "burst", "output", "window", "family", "fsync",
        "stop-set", "topology-cache", "metrics-out", "trace-events"}) {
    if (flags.has(flag)) {
      std::fprintf(stderr,
                   "mmlpt_survey: --%s is ignored in evaluation mode\n",
                   flag);
    }
  }
  survey::EvaluationConfig config;
  config.pairs = flags.get_uint("pairs", 300);
  config.distinct_diamonds = tools::parse_distinct(flags, 200);
  config.seed = flags.get_uint("seed", 1);
  const auto result = survey::run_evaluation(config);

  w.begin_object();
  w.key("mode");
  w.value("evaluation");
  w.key("pairs");
  w.value(static_cast<std::uint64_t>(result.pairs.size()));
  w.key("aggregate");
  w.begin_array();
  for (std::size_t vi = 0; vi < survey::kVariantCount; ++vi) {
    const auto v = static_cast<survey::Variant>(vi);
    w.begin_object();
    w.key("variant");
    w.value(survey::variant_name(v));
    w.key("vertex_ratio");
    w.value(result.aggregate_vertex_ratio(v));
    w.key("edge_ratio");
    w.value(result.aggregate_edge_ratio(v));
    w.key("packet_ratio");
    w.value(result.aggregate_packet_ratio(v));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return 0;
}

int run_router(const Flags& flags, JsonWriter& w) {
  survey::RouterSurveyConfig config;
  config.generator.family = tools::parse_family(flags);
  config.routes = flags.get_uint("routes", 150);
  config.distinct_diamonds = tools::parse_distinct(flags, 80);
  config.multilevel.rounds = tools::parse_rounds(flags);
  config.seed = flags.get_uint("seed", 1);
  return run_fleet_survey(
      flags, "router_survey", config, config.multilevel.trace, w,
      &survey::run_router_survey,
      [&](const survey::RouterSurveyResult& result) {
        w.key("unique_diamonds");
        w.value(result.unique_diamonds);
        w.key("resolution");
        w.begin_object();
        w.key("no_change");
        w.value(result.resolution_fraction(topo::ResolutionClass::kNoChange));
        w.key("single_smaller");
        w.value(result.resolution_fraction(
            topo::ResolutionClass::kSingleSmallerDiamond));
        w.key("multiple_smaller");
        w.value(result.resolution_fraction(
            topo::ResolutionClass::kMultipleSmallerDiamonds));
        w.key("one_path");
        w.value(result.resolution_fraction(topo::ResolutionClass::kOnePath));
        w.end_object();
        w.key("distinct_router_sizes");
        emit_histogram(w, result.distinct_router_size);
        w.key("aggregated_router_sizes");
        emit_histogram(w, result.aggregated_router_size);
      });
}

int run_survey(const Flags& flags) {
  const auto mode = flags.get("mode", "ip");
  JsonWriter w;
  int rc = 0;
  if (mode == "ip") {
    rc = run_ip(flags, w);
  } else if (mode == "evaluation") {
    rc = run_evaluation(flags, w);
  } else if (mode == "router") {
    rc = run_router(flags, w);
  } else {
    throw ConfigError("unknown --mode (ip|evaluation|router): " + mode);
  }
  // An interrupted survey (rc = 128+signal) has no report to print.
  if (rc == 0) std::printf("%s\n", w.view().c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  return tools::cli_main(tools::Tool::kSurvey, argc, argv, run_survey);
}
