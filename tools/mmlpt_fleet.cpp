// mmlpt_fleet — the fleet orchestrator CLI: trace many destinations
// concurrently over the Fakeroute simulator and stream one JSON line per
// destination (JSONL). This is the survey-scale entry point the paper's
// Internet evaluation (~40k destinations) calls for, in reproduction
// form: each destination gets a synthetic route drawn from the Sec. 5.1
// generator, and the fleet engine traces them over a worker pool with an
// optional fleet-wide probe rate limit.
//
// Results are a pure function of (inputs, --seed): --jobs only changes
// wall-clock time, never a byte of output. The trace core is the shared
// daemon::run_fleet_job — the same code path mmlptd serves over its
// socket, which is what makes daemon output byte-identical to this tool.
//
// SIGINT/SIGTERM cancel the run cooperatively: in-flight probes resolve
// through the transport cancel path, committed lines are flushed (and
// fsynced under --fsync), the stop set is written, and the process exits
// 128+signal.
#include <chrono>
#include <iostream>
#include <string>

#include "cli_common.h"
#include "common/flags.h"
#include "daemon/fleet_job.h"
#include "orchestrator/fleet.h"
#include "orchestrator/stop_set.h"
#include "probe/cancel.h"

using namespace mmlpt;

namespace {

int run_fleet(const Flags& flags) {
  const auto spec = tools::parse_job_spec(flags);  // throws on empty list
  auto fleet_options = tools::parse_fleet_options(flags);
  const auto output = tools::make_output(flags, &std::cout);

  tools::ObsSession obs(tools::parse_obs_options(flags));
  fleet_options.metrics = &obs.registry();
  orchestrator::StopSetSession stop_set_session(
      fleet_options.stop_set.topology_cache, fleet_options.stop_set.consult);
  stop_set_session.instrument(obs.registry());
  orchestrator::FleetScheduler fleet(fleet_options);
  tools::SignalCancelScope cancel_scope;

  daemon::FleetJobHooks hooks;
  hooks.on_line = [&](std::size_t i, const std::string& line) {
    output->sink->emit(i, line);
  };
  hooks.cancel = &cancel_scope.token;

  daemon::FleetJobCounters counters;
  const auto start = std::chrono::steady_clock::now();
  try {
    counters = daemon::run_fleet_job(fleet, &stop_set_session, spec,
                                     fakeroute::SimConfig{}, hooks);
  } catch (const probe::CanceledError&) {
    return tools::finish_interrupted("mmlpt_fleet", cancel_scope,
                                     output.get(), stop_set_session, obs);
  }
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start);
  output->sink->flush();
  // One machine-parsable summary line (the CI warm-cache gate greps the
  // stop_set fields; the union digest identifies the discovered topology
  // regardless of how discovery was split between cache and probing).
  tools::SummaryLine("mmlpt_fleet")
      .field("destinations", static_cast<std::uint64_t>(counters.destinations))
      .field("reached", counters.reached)
      .field("packets", counters.packets)
      .field("diamonds", counters.diamonds)
      .field("distinct_diamonds", counters.distinct_diamonds)
      .field("wall_seconds", elapsed.count())
      .field("pps",
             elapsed.count() > 0
                 ? static_cast<double>(counters.packets) / elapsed.count()
                 : 0.0)
      .field("jobs", static_cast<std::int64_t>(fleet_options.jobs))
      .field("transport", "sim")
      .stop_set(stop_set_session, counters.probes_saved_by_stop_set,
                counters.traces_stopped)
      .metrics(obs.registry())
      .print();
  stop_set_session.flush();
  obs.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tools::cli_main(tools::Tool::kFleet, argc, argv, run_fleet);
}
