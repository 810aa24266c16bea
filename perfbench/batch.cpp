// The two batch workloads: back-to-back survey jobs through
// daemon::run_fleet_job (ip-survey) and survey::run_router_survey
// (router-survey), each job's JSONL streamed through a ResultSink.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>

#include "common.h"
#include "daemon/fleet_job.h"
#include "orchestrator/result_sink.h"
#include "report.h"
#include "survey/router_survey.h"

namespace perfbench {

namespace orch = mmlpt::orchestrator;
namespace topo = mmlpt::topo;

namespace {

struct JobRun {
  std::uint64_t destinations = 0;
  std::uint64_t packets = 0;
};

struct BatchWorkload {
  std::size_t routes = 0;  // destinations per job
  double jobs_per_second = 0;  // jobs a run makes per --seconds
  /// What the entry point builds before its first trace (setup cost).
  std::function<void(std::uint64_t seed)> make_world;
  /// One job through the public entry point.
  std::function<JobRun(std::uint64_t seed, orch::FleetScheduler& fleet,
                         orch::ResultSink& sink)>
      untraced;
  /// The same job through the traced replica.
  std::function<PassTotals(std::uint64_t seed, orch::FleetScheduler& fleet,
                           const Instruments& instruments,
                           std::uint64_t request_base, const LineFn& on_line)>
      traced;
  /// Optional: the MDA-Lite-only rerun the alias layer is measured
  /// against (router-survey only).
  std::function<void(std::uint64_t seed, orch::FleetScheduler& fleet,
                     const Instruments& instruments,
                     std::uint64_t request_base)>
      lite_rerun;
};

constexpr int kSetupRepeats = 31;

std::uint64_t fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  char c = 0;
  while (in.get(c)) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

void run_batch(const Options& options, Report& report,
               const BatchWorkload& workload) {
  const std::int64_t deadline = now_ns() + 150'000'000'000LL;
  const orch::FleetConfig fleet_config{.jobs = options.jobs};
  const std::string untraced_path = options.workdir + "/untraced.jsonl";
  const std::string traced_path = options.workdir + "/traced.jsonl";
  EndToEnd e2e;

  // Set-up: scheduler, sink over a fresh file, and the job's world.
  for (int k = 0; k < (options.smoke ? 2 : kSetupRepeats); ++k) {
    const auto start = thread_cpu_ns();
    orch::FleetScheduler fleet(fleet_config);
    std::ofstream stream(options.workdir + "/setup.jsonl",
                         std::ios::trunc | std::ios::binary);
    orch::ResultSink sink(stream);
    workload.make_world(derive_seed(options.seed, 1000 + k));
    e2e.setup_s.push_back(static_cast<double>(thread_cpu_ns() - start) / 1e9);
  }

  // Timed, untraced: a fixed number of whole jobs back to back. The count
  // scales with --seconds (sized for about that long on a 4-vCPU host)
  // rather than stopping on the clock, so every run of a seed does the
  // same work whatever the program's speed.
  const std::uint64_t jobs =
      options.smoke ? 1
                    : std::max<std::uint64_t>(
                          1, static_cast<std::uint64_t>(std::llround(
                                 options.seconds * workload.jobs_per_second)));
  {
    orch::FleetScheduler fleet(fleet_config);
    FirstWriteBuf buffer;
    if (buffer.open(untraced_path,
                    std::ios::out | std::ios::trunc | std::ios::binary) ==
        nullptr) {
      throw std::runtime_error("cannot create " + untraced_path);
    }
    std::ostream stream(&buffer);
    HeapSampler heap;
    std::vector<double> job_peak_mib;
    const auto cpu_start = process_cpu_ns();
    const auto start = now_ns();
    for (std::uint64_t job = 0; job < jobs; ++job) {
      check_deadline(deadline, "untraced jobs");
      buffer.arm();
      heap.reset();
      const auto job_start = now_ns();
      JobRun run;
      {
        orch::ResultSink sink(stream);
        run = workload.untraced(derive_seed(options.seed, job), fleet, sink);
        sink.flush();
      }
      const auto job_end = now_ns();
      job_peak_mib.push_back(heap.peak_mib());
      e2e.request_ms.push_back(static_cast<double>(job_end - job_start) / 1e6);
      e2e.first_line_ms.push_back(
          static_cast<double>(buffer.first_write_ns() - job_start) / 1e6);
      e2e.destinations += run.destinations;
      e2e.packets += run.packets;
    }
    e2e.wall_ns = static_cast<double>(now_ns() - start);
    e2e.cpu_ns = static_cast<double>(process_cpu_ns() - cpu_start);
    e2e.peak_heap_mib = median(job_peak_mib);
  }
  report.attempted = e2e.destinations;

  // Traced replica over the same jobs: reference output and the ledger.
  Ledger ledger;
  DatagramSample sample(4096);
  std::atomic<std::uint64_t> retries{0};
  const Instruments instruments{&ledger, &sample, &retries};
  PassTotals totals;
  TracedPass pass;
  {
    orch::FleetScheduler fleet(fleet_config);
    std::ofstream out(traced_path, std::ios::binary | std::ios::trunc);
    const auto busy = static_cast<double>(
        std::min<std::size_t>(static_cast<std::size_t>(std::max(1, options.jobs)),
                              workload.routes));
    const auto start = now_ns();
    for (std::uint64_t job = 0; job < jobs; ++job) {
      check_deadline(deadline, "traced jobs");
      const auto job_start = now_ns();
      orch::ResultSink sink(out);
      totals += workload.traced(
          derive_seed(options.seed, job), fleet, instruments,
          job * workload.routes, [&](std::size_t i, std::string line) {
            Ledger::Scope span(&ledger, SpanKind::kEmit, job * workload.routes + i);
            sink.emit(i, std::move(line));
          });
      sink.flush();
      pass.worker_ns += static_cast<double>(now_ns() - job_start) * busy;
    }
    pass.traced_wall_ns = static_cast<double>(now_ns() - start);
    if (!out.flush()) throw std::runtime_error("cannot write " + traced_path);
  }
  std::printf("output_digest %016llx\n",
              static_cast<unsigned long long>(fnv1a_file(untraced_path)));

  // Oracle: byte-identical lines, every trace complete.
  const auto mismatches = count_line_mismatches(untraced_path, traced_path);
  if (mismatches > 0) {
    report.fail(mismatches, std::to_string(mismatches) +
                                " JSONL lines differ from the traced reference");
  }
  if (totals.destinations != e2e.destinations) {
    report.fail(0, "traced pass saw " + std::to_string(totals.destinations) +
                       " destinations, untraced " +
                       std::to_string(e2e.destinations));
  }
  if (totals.not_reached > 0) {
    report.fail(totals.not_reached, std::to_string(totals.not_reached) +
                                        " traces did not reach the destination");
  }
  report.failed = std::min(report.failed, report.attempted);
  e2e.topology_checked = totals.topology_checked;
  e2e.topology_missed = totals.topology_missed;
  add_end_to_end(report, e2e);
  if (!options.trace) return;

  ledger.write_spans(options.workdir + "/spans.jsonl");
  const auto times = layer_times(ledger);
  pass.untraced_wall_ns = e2e.wall_ns;
  pass.destinations = totals.destinations;
  pass.retries = retries.load();
  const auto dests = static_cast<double>(std::max<std::uint64_t>(1, totals.destinations));
  pass.alias_probes_per_dest =
      static_cast<double>(totals.packets - totals.trace_packets) / dests;
  pass.probes_saved_per_dest = static_cast<double>(totals.probes_saved) / dests;
  if (workload.lite_rerun) {
    Ledger lite_ledger;
    DatagramSample lite_sample(0);
    std::atomic<std::uint64_t> lite_retries{0};
    const Instruments lite{&lite_ledger, &lite_sample, &lite_retries};
    orch::FleetScheduler fleet(fleet_config);
    for (std::uint64_t job = 0; job < jobs; ++job) {
      check_deadline(deadline, "MDA-Lite reruns");
      workload.lite_rerun(derive_seed(options.seed, job), fleet, lite,
                          job * workload.routes);
    }
    pass.alias_ms_per_dest =
        (times.trace_ns - layer_times(lite_ledger).lite_ns) / dests / 1e6;
  }
  add_per_layer(report, times, pass, sample);
}

}  // namespace

void run_ip_survey(const Options& options, Report& report) {
  BatchWorkload workload;
  workload.routes = options.smoke ? 24 : 50;
  workload.jobs_per_second = 20;
  const auto spec_for = [routes = workload.routes](std::uint64_t seed) {
    mmlpt::daemon::FleetJobSpec spec;
    spec.routes = routes;
    spec.algorithm = mmlpt::core::Algorithm::kMdaLite;
    spec.family = mmlpt::net::Family::kIpv4;
    spec.seed = seed;
    return spec;
  };
  const mmlpt::fakeroute::SimConfig sim;
  workload.make_world = [&](std::uint64_t seed) {
    const auto spec = spec_for(seed);
    topo::GeneratorConfig generator;
    generator.family = spec.family;
    generator.shared_prefix_hops = spec.shared_prefix;
    topo::SurveyWorld world(generator, spec.distinct, spec.seed);
  };
  workload.untraced = [&](std::uint64_t seed, orch::FleetScheduler& fleet,
                          orch::ResultSink& sink) {
    mmlpt::daemon::FleetJobHooks hooks;
    hooks.on_line = [&](std::size_t i, std::string line) {
      sink.emit(i, std::move(line));
    };
    const auto counters =
        mmlpt::daemon::run_fleet_job(fleet, nullptr, spec_for(seed), sim, hooks);
    return JobRun{counters.destinations, counters.packets};
  };
  workload.traced = [&](std::uint64_t seed, orch::FleetScheduler& fleet,
                        const Instruments& instruments,
                        std::uint64_t request_base, const LineFn& on_line) {
    return replica_fleet_job(fleet, nullptr, spec_for(seed), sim, instruments,
                             request_base, on_line);
  };
  run_batch(options, report, workload);
}

void run_router_survey(const Options& options, Report& report) {
  BatchWorkload workload;
  workload.routes = options.smoke ? 6 : 12;
  workload.jobs_per_second = 18;
  const auto config_for = [&options, routes = workload.routes](
                              std::uint64_t seed) {
    mmlpt::survey::RouterSurveyConfig config;
    config.routes = routes;
    config.seed = seed;
    config.jobs = options.jobs;
    config.multilevel.rounds = 10;
    // The paper's width marginal truncated at 16 (88% of its mass): one
    // 96-wide diamond costs as many alias-round probes as hundreds of
    // narrow routes, and would decide a whole run's mean on its own.
    std::erase_if(config.generator.width_weights,
                  [](const auto& entry) { return entry.first > 16; });
    return config;
  };
  workload.make_world = [&](std::uint64_t seed) {
    const auto config = config_for(seed);
    topo::SurveyWorld world(config.generator, config.distinct_diamonds,
                            config.seed);
  };
  workload.untraced = [&](std::uint64_t seed, orch::FleetScheduler&,
                          orch::ResultSink& sink) {
    const auto result = mmlpt::survey::run_router_survey(config_for(seed), &sink);
    return JobRun{result.routes_traced, result.total_packets};
  };
  workload.traced = [&](std::uint64_t seed, orch::FleetScheduler& fleet,
                        const Instruments& instruments,
                        std::uint64_t request_base, const LineFn& on_line) {
    return replica_router_survey(fleet, config_for(seed), instruments,
                                 request_base, on_line);
  };
  workload.lite_rerun = [&](std::uint64_t seed, orch::FleetScheduler& fleet,
                            const Instruments& instruments,
                            std::uint64_t request_base) {
    lite_rerun(fleet, config_for(seed), instruments, request_base);
  };
  run_batch(options, report, workload);
}

}  // namespace perfbench
