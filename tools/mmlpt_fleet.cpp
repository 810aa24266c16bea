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
#include <cstdio>
#include <iostream>
#include <string>

#include "cli_common.h"
#include "common/error.h"
#include "common/flags.h"
#include "daemon/fleet_job.h"
#include "orchestrator/fleet.h"
#include "orchestrator/stop_set.h"
#include "probe/cancel.h"

using namespace mmlpt;

namespace {

constexpr const char kUsagePrefix[] =
    "usage: mmlpt_fleet [options]\n"
    "\n"
    "  mmlpt_fleet --routes 64 --jobs 8                 # 8-worker fleet\n"
    "  mmlpt_fleet --destinations dests.txt --jobs 8 --pps 500 \\\n"
    "              --output traces.jsonl --fsync\n"
    "\n"
    "Traces N destinations concurrently over the Fakeroute simulator and\n"
    "streams one JSON line per destination, in destination order:\n"
    "  {\"index\":i,\"destination\":\"a.b.c.d\",\"trace\":{...}}\n"
    "\n"
    "options:\n"
    "  --destinations FILE  one label per line (e.g. an IPv4 address); each\n"
    "                       line becomes one destination task, labelled with\n"
    "                       that string. Without it, --routes synthetic\n"
    "                       destinations are generated.\n"
    "  --routes N           destination count when no --destinations (64)\n"
    "  -6 | --family 4|6    address family of the synthetic world\n"
    "                       (default IPv4; v6 Paris probes vary only the\n"
    "                       flow label)\n";
constexpr const char kUsageSuffix[] =
    "  --algorithm A        mda | mda-lite | single-flow (default mda-lite)\n"
    "  --distinct N         distinct diamond templates in the world (100)\n"
    "  --shared-prefix N    every synthetic route starts with the same N\n"
    "                       leading routers (one vantage point, common\n"
    "                       first hops — the topology where the stop set\n"
    "                       pays off). Default 0 = fully random prefixes\n"
    "  --seed N             world + trace seed (default 1)\n"
    "  --output FILE        JSONL destination (default stdout)\n"
    "  --version            print version and exit\n"
    "\n"
    "One machine-parsable JSON summary line goes to stderr when done:\n"
    "  {\"tool\":\"mmlpt_fleet\",\"destinations\":..,\"packets\":..,\n"
    "   \"stop_set\":{..,\"union_digest\":\"..\"},\"metrics\":{..}}\n"
    "The stop_set object appears with --topology-cache; the metrics\n"
    "object lists the run's non-zero counters from the registry.\n";

std::string usage_text() {
  return kUsagePrefix + tools::fleet_options_usage() + kUsageSuffix;
}

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
  try {
    const Flags flags(argc, argv);
    const auto usage = usage_text();
    if (flags.has("help")) {
      std::fputs(usage.c_str(), stdout);
      return 0;
    }
    if (tools::reject_unknown_flags(flags, usage, "mmlpt_fleet")) {
      return tools::kUsageErrorExit;
    }
    if (tools::handle_version(flags, "mmlpt_fleet")) return 0;
    return run_fleet(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mmlpt_fleet: %s\n", e.what());
    return 1;
  }
}
