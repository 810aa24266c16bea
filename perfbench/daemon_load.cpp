// The daemon-requests workload: a closed loop of four daemon::Client
// connections (distinct tenants) against an in-process daemon::Daemon
// that consults a Doubletree stop set loaded from a topology cache.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "common.h"
#include "daemon/client.h"
#include "daemon/fleet_job.h"
#include "daemon/server.h"
#include "orchestrator/stop_set.h"
#include "report.h"
#include "store/topology_store.h"

namespace perfbench {

namespace daemon = mmlpt::daemon;
namespace orch = mmlpt::orchestrator;

namespace {

constexpr int kClients = 4;
constexpr std::size_t kSpecs = 8;
/// Worlds the record-only cold run covers. Most traces of every world,
/// these and the others, then stop on a stop-set hit at the first hop;
/// the few that do not run in full.
constexpr std::size_t kWarmSpecs = 6;
constexpr int kSetupRepeats = 31;
constexpr double kJobsPerClientPerSecond = 360;

/// One finished job as a caller saw it.
struct JobSample {
  std::size_t spec = 0;
  double ms = 0;
  double first_line_ms = 0;
  std::uint64_t lines = 0;
  std::uint64_t packets = 0;
  bool ok = false;
  std::uint64_t mismatched_lines = 0;
};

/// The fixed set of job worlds every run rotates over; the run's seed
/// only orders each client's walk through it.
constexpr std::uint64_t kWorldSeedBase = 0x6d6d6c7074ULL;

/// Spec index of client `client`'s `job`-th job: every client walks the
/// whole set once per cycle, each cycle in its own seed-derived order, so
/// which specs run side by side averages out over a run instead of
/// repeating one fixed pattern.
std::size_t spec_of(std::uint64_t seed, int client, std::uint64_t job) {
  const std::uint64_t cycle_seed = derive_seed(
      derive_seed(seed, static_cast<std::uint64_t>(client)), job / kSpecs);
  std::array<std::size_t, kSpecs> order{};
  for (std::size_t k = 0; k < kSpecs; ++k) order[k] = k;
  for (std::size_t k = kSpecs - 1; k > 0; --k) {  // Fisher-Yates
    std::swap(order[k], order[derive_seed(cycle_seed, k) % (k + 1)]);
  }
  return order[job % kSpecs];
}

/// Run `body(client, job)` closed-loop on kClients threads, `jobs` times
/// per client; rethrows the first error. Returns the wall time.
template <typename Body>
double closed_loop(std::uint64_t jobs, std::int64_t deadline, Body&& body) {
  std::mutex mutex;
  std::exception_ptr error;
  std::atomic<bool> stop{false};
  const auto start = now_ns();
  std::vector<std::jthread> threads;  // joined on every exit path
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::uint64_t job = 0; job < jobs && !stop.load(); ++job) {
          check_deadline(deadline, "closed loop");
          body(c, job);
        }
      } catch (...) {
        std::lock_guard lock(mutex);
        if (!error) error = std::current_exception();
        stop.store(true);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
  return static_cast<double>(now_ns() - start);
}

}  // namespace

void run_daemon_requests(const Options& options, Report& report) {
  const std::int64_t deadline = now_ns() + 150'000'000'000LL;
  const mmlpt::fakeroute::SimConfig sim;
  const std::string cache = options.workdir + "/topology.mtps";
  std::vector<daemon::FleetJobSpec> specs(kSpecs);
  for (std::size_t k = 0; k < kSpecs; ++k) {
    specs[k].routes = options.smoke ? 3 : 6;
    specs[k].algorithm = mmlpt::core::Algorithm::kMdaLite;
    specs[k].seed = derive_seed(kWorldSeedBase, k);
    specs[k].distinct = 20;
    specs[k].shared_prefix = 3;
  }

  // The topology cache: one record-only cold run over the warm worlds.
  {
    orch::StopSetSession cold(cache, /*consult=*/false);
    orch::FleetScheduler fleet(orch::FleetConfig{});
    for (std::size_t k = 0; k < kWarmSpecs; ++k) {
      (void)daemon::run_fleet_job(fleet, &cold, specs[k], sim, {});
    }
    cold.flush();
  }
  const auto snapshot = mmlpt::store::TopologyStore::load(cache).snapshot;

  // Reference lines: in-process run_fleet_job over the same cache state.
  orch::StopSetSession reference_session(cache, /*consult=*/true);
  orch::FleetScheduler reference_fleet(orch::FleetConfig{});
  std::vector<std::vector<std::string>> expected(kSpecs);
  for (std::size_t k = 0; k < kSpecs; ++k) {
    daemon::FleetJobHooks hooks;
    hooks.on_line = [&](std::size_t, std::string line) {
      expected[k].push_back(std::move(line));
    };
    (void)daemon::run_fleet_job(reference_fleet, &reference_session, specs[k],
                                sim, hooks);
  }

  const auto daemon_config = [&](const std::string& socket) {
    daemon::DaemonConfig config;
    config.socket_path = socket;
    config.topology_cache = cache;
    config.consult_stop_set = true;
    config.sim = sim;
    return config;
  };

  // Set-up: daemon construction (store load) through bind and listen.
  EndToEnd e2e;
  std::vector<double> store_load_ms;
  for (int k = 0; k < (options.smoke ? 2 : kSetupRepeats); ++k) {
    const std::string socket = options.workdir + "/setup" + std::to_string(k) + ".sock";
    const auto start = thread_cpu_ns();
    daemon::Daemon setup_daemon(daemon_config(socket));
    setup_daemon.start();
    e2e.setup_s.push_back(static_cast<double>(thread_cpu_ns() - start) / 1e9);
    setup_daemon.stop();
    std::remove(socket.c_str());

    const auto load_start = thread_cpu_ns();
    orch::StopSetSession session(cache, /*consult=*/true);
    store_load_ms.push_back(static_cast<double>(thread_cpu_ns() - load_start) / 1e6);
  }

  // Timed: the closed loop against a live daemon, a fixed number of jobs
  // per client sized for about --seconds on a 4-vCPU host. Smoke mode:
  // one cycle per client covers every spec.
  const std::uint64_t jobs_per_client =
      options.smoke ? kSpecs
                    : std::max<std::uint64_t>(
                          1, static_cast<std::uint64_t>(std::llround(
                                 options.seconds * kJobsPerClientPerSecond)));
  const std::string socket = options.workdir + "/mmlptd.sock";
  std::vector<std::vector<JobSample>> per_client(kClients);
  std::uint64_t refused = 0;
  std::uint64_t finished = 0;
  {
    daemon::Daemon server(daemon_config(socket));
    server.start();
    std::vector<std::unique_ptr<daemon::Client>> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<daemon::Client>(
          socket, "tenant-" + std::to_string(c)));
    }
    HeapSampler heap;
    const auto cpu_start = process_cpu_ns();
    e2e.wall_ns = closed_loop(jobs_per_client, deadline, [&](int c, std::uint64_t job) {
          JobSample sample;
          sample.spec = spec_of(options.seed, c, job);
          const auto& want = expected[sample.spec];
          const auto start = now_ns();
          daemon::ClientRunOptions run;
          run.on_line = [&](const std::string& line) {
            if (sample.lines == 0) {
              sample.first_line_ms = static_cast<double>(now_ns() - start) / 1e6;
            }
            if (sample.lines >= want.size() || want[sample.lines] != line) {
              ++sample.mismatched_lines;
            }
            ++sample.lines;
          };
          const auto result = clients[static_cast<std::size_t>(c)]->run_job(
              specs[sample.spec], run);
          sample.ms = static_cast<double>(now_ns() - start) / 1e6;
          sample.ok = result.outcome == daemon::JobOutcome::kOk;
          sample.packets = result.packets;
          per_client[static_cast<std::size_t>(c)].push_back(sample);
        });
    e2e.cpu_ns = static_cast<double>(process_cpu_ns() - cpu_start);
    e2e.peak_heap_mib = heap.peak_mib();
    clients.clear();
    for (const auto& [name, value] : server.metrics().scalar_snapshot()) {
      if (name.rfind("mmlpt_daemon_jobs_total", 0) != 0) continue;
      finished += static_cast<std::uint64_t>(value);
      if (name.find("rejected") != std::string::npos) {
        refused += static_cast<std::uint64_t>(value);
      }
    }
    server.stop();
  }

  std::vector<JobSample> jobs;
  for (const auto& samples : per_client) {
    jobs.insert(jobs.end(), samples.begin(), samples.end());
  }
  std::vector<std::uint64_t> completed_per_spec(kSpecs, 0);
  for (const auto& job : jobs) {
    const auto want = specs[job.spec].routes;
    report.attempted += want;
    if (!job.ok) {
      report.fail(want, "daemon job did not finish ok");
      continue;
    }
    if (job.mismatched_lines > 0 || job.lines != want) {
      report.fail(std::max<std::uint64_t>(job.mismatched_lines, 1),
                  "daemon lines differ from in-process run_fleet_job");
    }
    ++completed_per_spec[job.spec];
    e2e.destinations += job.lines;
    e2e.packets += job.packets;
    e2e.request_ms.push_back(job.ms);
    e2e.first_line_ms.push_back(job.first_line_ms);
  }

  // Oracle: the traced replica must reproduce the reference lines, and its
  // in-memory traces give the ground-truth comparison, weighted by how
  // often the daemon served each spec.
  orch::SharedStopSet oracle_set;
  oracle_set.seed(snapshot);
  {
    Ledger ledger;
    DatagramSample sample(0);
    std::atomic<std::uint64_t> retries{0};
    TimedStopSet timed(oracle_set, ledger);
    orch::FleetScheduler fleet(orch::FleetConfig{});
    for (std::size_t k = 0; k < kSpecs; ++k) {
      std::vector<std::string> lines;
      const auto totals = replica_fleet_job(
          fleet, &timed, specs[k], sim, {&ledger, &sample, &retries}, 0,
          [&](std::size_t, std::string line) { lines.push_back(std::move(line)); });
      if (lines != expected[k]) {
        report.fail(specs[k].routes, "traced replica differs from run_fleet_job");
      }
      const auto weight = completed_per_spec[k];
      e2e.topology_checked += totals.topology_checked * weight;
      e2e.topology_missed += totals.topology_missed * weight;
      if (totals.not_reached > 0 && weight > 0) {
        report.fail(totals.not_reached * weight,
                    "traces neither reached the destination nor hit the stop set");
      }
    }
  }
  report.failed = std::min(report.failed, report.attempted);
  add_end_to_end(report, e2e);
  if (!options.trace) return;

  // In-process run_fleet_job under the same closed loop: the baseline the
  // daemon's framing and admission overhead is measured against.
  const std::uint64_t half_jobs = std::max<std::uint64_t>(1, jobs_per_client / 2);
  std::vector<std::vector<double>> inproc_ms(kClients);
  const double inproc_wall = closed_loop(
      half_jobs, deadline, [&](int c, std::uint64_t job) {
        const auto start = now_ns();
        (void)daemon::run_fleet_job(reference_fleet, &reference_session,
                                    specs[spec_of(options.seed, c, job)], sim, {});
        inproc_ms[static_cast<std::size_t>(c)].push_back(
            static_cast<double>(now_ns() - start) / 1e6);
      });
  std::map<std::size_t, std::vector<double>> inproc_by_spec;
  std::size_t inproc_jobs = 0;
  for (int c = 0; c < kClients; ++c) {
    const auto& times = inproc_ms[static_cast<std::size_t>(c)];
    inproc_jobs += times.size();
    for (std::size_t j = 0; j < times.size(); ++j) {
      inproc_by_spec[spec_of(options.seed, c, j)].push_back(times[j]);
    }
  }
  std::vector<double> overhead;
  for (const auto& job : jobs) {
    const auto found = inproc_by_spec.find(job.spec);
    if (job.ok && found != inproc_by_spec.end()) {
      overhead.push_back(job.ms - median(found->second));
    }
  }

  // The traced replica under the same closed loop.
  Ledger ledger;
  DatagramSample sample(4096);
  std::atomic<std::uint64_t> retries{0};
  TimedStopSet timed(oracle_set, ledger);
  orch::FleetScheduler fleet(orch::FleetConfig{});
  std::mutex totals_mutex;
  PassTotals totals;
  std::atomic<std::uint64_t> replica_jobs{0};
  std::atomic<std::uint64_t> replica_mismatches{0};
  const double traced_wall = closed_loop(
      half_jobs, deadline, [&](int c, std::uint64_t job) {
        const auto k = spec_of(options.seed, c, job);
        std::vector<std::string> lines;
        const auto job_totals = replica_fleet_job(
            fleet, &timed, specs[k], sim, {&ledger, &sample, &retries},
            (replica_jobs.fetch_add(1) + 1) * 1000,
            [&](std::size_t, std::string line) { lines.push_back(std::move(line)); });
        if (lines != expected[k]) replica_mismatches.fetch_add(1);
        std::lock_guard lock(totals_mutex);
        totals += job_totals;
      });
  if (replica_mismatches.load() > 0) {
    report.fail(0, "traced replica jobs differ from run_fleet_job");
  }
  ledger.write_spans(options.workdir + "/spans.jsonl");

  TracedPass pass;
  pass.worker_ns = traced_wall * kClients;
  // Same closed loop and specs, so mean job times compare like for like.
  pass.traced_wall_ns = traced_wall / static_cast<double>(replica_jobs.load());
  pass.untraced_wall_ns = inproc_wall / static_cast<double>(inproc_jobs);
  pass.destinations = totals.destinations;
  pass.retries = retries.load();
  const auto dests = static_cast<double>(std::max<std::uint64_t>(1, totals.destinations));
  pass.probes_saved_per_dest = static_cast<double>(totals.probes_saved) / dests;
  pass.store_load_ms = median(store_load_ms);
  pass.store_load_samples = store_load_ms.size();
  pass.daemon_overhead_ms = median(overhead);
  pass.overhead_samples = overhead.size();
  pass.refused_ratio = finished > 0 ? static_cast<double>(refused) /
                                          static_cast<double>(finished)
                                    : 0.0;
  add_per_layer(report, layer_times(ledger), pass, sample);
}

}  // namespace perfbench
