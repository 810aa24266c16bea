// mmlptd end to end, in process: a real Daemon on a temp unix socket and
// real Clients speaking the framed protocol over it. Gates the PR's
// acceptance criteria — concurrent clients each byte-identical to a
// standalone run_fleet_job of the same spec, one client's mid-trace
// cancel leaving other tenants untouched, admission control refusing the
// over-cap job with an observable kRejected status, a connection
// refusing a second job while its first runs, and the status document
// carrying the admission counters. It also pins the serving shape: idle
// clients cost the daemon no thread, a client that never reads stalls
// no one else, and a failed start leaves no descriptor open.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include "common/error.h"
#include "common/json.h"
#include "daemon/admission.h"
#include "daemon/client.h"
#include "daemon/fleet_job.h"
#include "daemon/server.h"
#include "orchestrator/fleet.h"

namespace mmlpt::daemon {
namespace {

std::string temp_socket_path() {
  // sockaddr_un paths are short; keep these tight and per-process.
  static int counter = 0;
  return "/tmp/mmlptd-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(++counter) + ".sock";
}

FleetJobSpec small_spec(std::uint64_t routes, std::uint64_t seed,
                        net::Family family = net::Family::kIpv4) {
  FleetJobSpec spec;
  spec.routes = routes;
  spec.seed = seed;
  spec.family = family;
  spec.distinct = 6;
  return spec;
}

/// Destinations of a job that must still be running when the test
/// cancels it: seconds of unthrottled probing.
constexpr std::uint64_t kLongRoutes = 1024;

/// The standalone reference: run the spec through a fresh single-worker
/// scheduler, exactly `mmlpt_fleet --jobs 1`, and collect the lines.
std::vector<std::string> reference_lines(const FleetJobSpec& spec) {
  orchestrator::FleetConfig config;
  config.jobs = 1;
  orchestrator::FleetScheduler fleet(config);
  std::vector<std::string> lines;
  FleetJobHooks hooks;
  hooks.on_line = [&](std::size_t, std::string line) {
    lines.push_back(std::move(line));
  };
  (void)run_fleet_job(fleet, nullptr, spec, fakeroute::SimConfig{}, hooks);
  return lines;
}

struct ClientRun {
  std::vector<std::string> lines;
  ClientJobResult result;
};

ClientRun run_client_job(const std::string& socket, const std::string& tenant,
                         const FleetJobSpec& spec,
                         ClientRunOptions options = {}) {
  Client client(socket, tenant);
  ClientRun run;
  options.on_line = [&](const std::string& line) {
    run.lines.push_back(line);
  };
  run.result = client.run_job(spec, options);
  return run;
}

TEST(Admission, EnforcesTotalAndPerTenantCapsAndCounts) {
  AdmissionController admission({/*max_jobs_total=*/3,
                                 /*max_jobs_per_tenant=*/2,
                                 /*tenant_pps=*/0.0, /*tenant_burst=*/64});
  EXPECT_TRUE(admission.try_admit("a").admitted);
  EXPECT_TRUE(admission.try_admit("a").admitted);
  const auto third_a = admission.try_admit("a");
  EXPECT_FALSE(third_a.admitted);
  EXPECT_NE(third_a.reason.find("max_jobs_per_tenant"), std::string::npos);

  EXPECT_TRUE(admission.try_admit("b").admitted);
  const auto over_total = admission.try_admit("c");
  EXPECT_FALSE(over_total.admitted);
  EXPECT_NE(over_total.reason.find("max_jobs_total"), std::string::npos);

  EXPECT_EQ(admission.jobs_active(), 3);
  EXPECT_EQ(admission.jobs_admitted(), 3u);
  EXPECT_EQ(admission.jobs_rejected(), 2u);

  admission.release("a");
  EXPECT_TRUE(admission.try_admit("c").admitted);
  EXPECT_EQ(admission.jobs_active(), 3);

  JsonWriter writer;
  admission.write_status(writer);
  const std::string& status = writer.view();
  EXPECT_NE(status.find("\"jobs_admitted\":4"), std::string::npos);
  EXPECT_NE(status.find("\"jobs_rejected\":2"), std::string::npos);
  EXPECT_NE(status.find("\"tenant\":\"a\""), std::string::npos);
}

TEST(Admission, ZeroCapsMeanUnlimitedAndLimiterIsPerTenant) {
  AdmissionController admission(
      {/*max_jobs_total=*/0, /*max_jobs_per_tenant=*/0,
       /*tenant_pps=*/1000.0, /*tenant_burst=*/8});
  const auto first = admission.try_admit("t");
  ASSERT_TRUE(first.admitted);
  ASSERT_NE(first.limiter, nullptr);
  admission.release("t");
  // The bucket persists across the tenant's jobs: same limiter object.
  const auto second = admission.try_admit("t");
  EXPECT_EQ(second.limiter, first.limiter);
  const auto other = admission.try_admit("u");
  EXPECT_NE(other.limiter, first.limiter);
}

TEST(DaemonE2E, ConcurrentClientsAreByteIdenticalToStandaloneRuns) {
  DaemonConfig config;
  config.socket_path = temp_socket_path();
  config.fleet.jobs = 2;
  Daemon daemon(config);
  daemon.start();

  const std::vector<FleetJobSpec> specs = {
      small_spec(12, 5),
      small_spec(10, 9),
      small_spec(8, 5, net::Family::kIpv6),
  };
  std::vector<ClientRun> runs(specs.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    clients.emplace_back([&, i] {
      runs[i] = run_client_job(config.socket_path,
                               "tenant-" + std::to_string(i), specs[i]);
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(runs[i].result.outcome, JobOutcome::kOk) << "client " << i;
    EXPECT_EQ(runs[i].lines, reference_lines(specs[i])) << "client " << i;
    EXPECT_EQ(runs[i].result.lines, runs[i].lines.size());
    EXPECT_GT(runs[i].result.packets, 0u);
  }

  daemon.stop();
  // Drain-and-exit removed the socket and the daemon is restart-safe.
  EXPECT_FALSE(daemon.running());
  EXPECT_NE(daemon.status_json().find("\"jobs_admitted\":3"),
            std::string::npos);
}

TEST(DaemonE2E, HandshakeNegotiatesTheProtocolVersion) {
  DaemonConfig config;
  config.socket_path = temp_socket_path();
  Daemon daemon(config);
  daemon.start();
  Client client(config.socket_path, "v");
  EXPECT_EQ(client.negotiated_version(), kProtocolVersion);
}

TEST(DaemonE2E, MidTraceCancelLeavesOtherTenantsUntouched) {
  DaemonConfig config;
  config.socket_path = temp_socket_path();
  config.fleet.jobs = 2;
  Daemon daemon(config);
  daemon.start();

  // The victim is long enough (seconds of probing) to be genuinely
  // mid-flight when its Cancel frame lands. No rate limit: the
  // bystander's job runs at full speed beside it.
  const auto long_spec = small_spec(kLongRoutes, 3);
  const auto other_spec = small_spec(6, 11);
  ClientRun canceled, other;
  std::thread cancel_thread([&] {
    ClientRunOptions options;
    options.cancel_after_lines = 2;
    canceled = run_client_job(config.socket_path, "victim", long_spec,
                              options);
  });
  std::thread other_thread([&] {
    other = run_client_job(config.socket_path, "bystander", other_spec);
  });
  cancel_thread.join();
  other_thread.join();

  EXPECT_EQ(canceled.result.outcome, JobOutcome::kCanceled)
      << canceled.result.message;
  EXPECT_LT(canceled.lines.size(), long_spec.destination_count());
  // The bystander's stream is bit-for-bit what a standalone run yields.
  EXPECT_EQ(other.result.outcome, JobOutcome::kOk) << other.result.message;
  EXPECT_EQ(other.lines, reference_lines(other_spec));

  // The daemon survives the cancel: the same tenant can run again and
  // still gets byte-identical output.
  const auto again = run_client_job(config.socket_path, "victim",
                                    other_spec);
  EXPECT_EQ(again.result.outcome, JobOutcome::kOk);
  EXPECT_EQ(again.lines, reference_lines(other_spec));
}

TEST(DaemonE2E, OverCapJobIsRejectedWithoutDisturbingTheRunningOne) {
  DaemonConfig config;
  config.socket_path = temp_socket_path();
  config.fleet.jobs = 2;
  config.admission.max_jobs_per_tenant = 1;
  Daemon daemon(config);
  daemon.start();

  // An fd-driven cancel lets the main thread end the long job the moment
  // the rejection has been observed — no sleeps, no flakiness.
  int cancel_pipe[2];
  ASSERT_EQ(::pipe(cancel_pipe), 0);

  // Long enough to hold the tenant's slot until the pipe cancels it.
  const auto long_spec = small_spec(kLongRoutes, 7);
  ClientRun running;
  std::thread running_thread([&] {
    ClientRunOptions options;
    options.cancel_fd = cancel_pipe[0];
    running = run_client_job(config.socket_path, "capped", long_spec,
                             options);
  });

  // Wait for the long job to occupy the tenant's single slot.
  while (daemon.admission().jobs_active() < 1) {
    std::this_thread::yield();
  }

  const auto rejected =
      run_client_job(config.socket_path, "capped", small_spec(4, 1));
  EXPECT_EQ(rejected.result.outcome, JobOutcome::kRejected);
  EXPECT_NE(rejected.result.message.find("max_jobs_per_tenant"),
            std::string::npos);
  EXPECT_TRUE(rejected.lines.empty());

  // A different tenant is not affected by the capped tenant's limit.
  const auto bystander_spec = small_spec(5, 2);
  const auto bystander =
      run_client_job(config.socket_path, "free", bystander_spec);
  EXPECT_EQ(bystander.result.outcome, JobOutcome::kOk);
  EXPECT_EQ(bystander.lines, reference_lines(bystander_spec));

  ASSERT_EQ(::write(cancel_pipe[1], "x", 1), 1);
  running_thread.join();
  EXPECT_EQ(running.result.outcome, JobOutcome::kCanceled)
      << running.result.message;
  ::close(cancel_pipe[0]);
  ::close(cancel_pipe[1]);

  EXPECT_EQ(daemon.admission().jobs_rejected(), 1u);
  EXPECT_EQ(daemon.admission().jobs_active(), 0);
}

/// A bare protocol connection that has finished the handshake: lets a
/// test write frames daemon::Client never sends.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path) : reader_(fd_) {
    try {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
      if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                               sizeof addr) != 0) {
        throw SystemError("cannot connect to " + path);
      }
      write_frame(fd_, encode_hello(Hello{}));
      if (next().type != static_cast<std::uint8_t>(FrameType::kHelloAck)) {
        throw Error("expected hello ack");
      }
    } catch (...) {
      ::close(fd_);
      throw;
    }
  }
  ~RawConnection() { ::close(fd_); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  /// Write `frames` with one send(), so the daemon reads them together.
  void send_together(const std::vector<Frame>& frames) {
    std::string bytes;
    for (const auto& frame : frames) bytes += encode_frame(frame);
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Block for the next frame.
  Frame next() {
    for (;;) {
      if (auto frame = reader_.next()) return *frame;
      if (!reader_.fill()) throw Error("daemon closed the connection");
    }
  }

  /// Read until job `job_id`'s status, appending its lines to `lines`
  /// and every other job's status to `others`.
  JobStatus run_to_status(std::uint64_t job_id,
                          std::vector<std::string>& lines,
                          std::vector<JobStatus>& others) {
    for (;;) {
      const auto frame = next();
      if (frame.type == static_cast<std::uint8_t>(FrameType::kResultLine)) {
        auto line = decode_job_text(frame);
        if (line.job_id == job_id) lines.push_back(std::move(line.text));
      } else if (frame.type ==
                 static_cast<std::uint8_t>(FrameType::kJobStatus)) {
        auto status = decode_job_status(frame);
        if (status.job_id == job_id) return status;
        others.push_back(std::move(status));
      }
    }
  }

 private:
  int fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FrameReader reader_;
};

TEST(DaemonE2E, SecondJobOnABusyConnectionIsRejected) {
  DaemonConfig config;
  config.socket_path = temp_socket_path();
  config.fleet.jobs = 2;
  Daemon daemon(config);
  daemon.start();

  RawConnection connection(config.socket_path);
  const auto spec = small_spec(8, 5);
  connection.send_together({encode_job_request({1, spec}),
                            encode_job_request({2, small_spec(4, 1)})});
  std::vector<std::string> lines;
  std::vector<JobStatus> others;
  const auto first = connection.run_to_status(1, lines, others);
  EXPECT_EQ(first.outcome, JobOutcome::kOk) << first.message;
  EXPECT_EQ(lines, reference_lines(spec));
  ASSERT_EQ(others.size(), 1u);
  EXPECT_EQ(others[0].job_id, 2u);
  EXPECT_EQ(others[0].outcome, JobOutcome::kRejected);
  EXPECT_EQ(others[0].lines, 0u);

  // The connection is free as soon as the first status arrives.
  lines.clear();
  connection.send_together({encode_job_request({3, spec})});
  const auto third = connection.run_to_status(3, lines, others);
  EXPECT_EQ(third.outcome, JobOutcome::kOk) << third.message;
  EXPECT_EQ(lines, reference_lines(spec));
  EXPECT_EQ(others.size(), 1u);
}

/// Entries in a /proc/self directory: threads under "task", open
/// descriptors under "fd".
std::size_t count_entries(const char* dir) {
  const auto entries = std::filesystem::directory_iterator(dir);
  return static_cast<std::size_t>(
      std::distance(std::filesystem::begin(entries),
                    std::filesystem::end(entries)));
}

TEST(DaemonE2E, IdleClientsCostNoThreads) {
  DaemonConfig config;
  config.socket_path = temp_socket_path();
  Daemon daemon(config);
  daemon.start();

  const std::size_t before = count_entries("/proc/self/task");
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 32; ++i) {
    // The constructor returns once the HelloAck has arrived.
    clients.push_back(std::make_unique<Client>(
        config.socket_path, "idle-" + std::to_string(i)));
  }
  EXPECT_EQ(count_entries("/proc/self/task"), before);
  EXPECT_NE(daemon.status_json().find("\"connections_active\":32"),
            std::string::npos)
      << daemon.status_json();
}

TEST(DaemonE2E, ClientThatNeverReadsStallsNoOtherTenant) {
  DaemonConfig config;
  config.socket_path = temp_socket_path();
  config.fleet.jobs = 2;
  Daemon daemon(config);
  daemon.start();

  // Thousands of status replies, far more than the socket buffer and the
  // daemon's outbox cap hold: the daemon must stop reading this client
  // rather than block on it or buffer without bound.
  RawConnection flood(config.socket_path);
  flood.send_together(std::vector<Frame>(
      4000, {static_cast<std::uint8_t>(FrameType::kStatusRequest), ""}));

  const auto spec = small_spec(8, 5);
  const auto other = run_client_job(config.socket_path, "reader", spec);
  EXPECT_EQ(other.result.outcome, JobOutcome::kOk) << other.result.message;
  EXPECT_EQ(other.lines, reference_lines(spec));
  Client status_client(config.socket_path, "ops");
  EXPECT_NE(status_client.server_status().find("\"jobs_admitted\":1"),
            std::string::npos);

  // Once the client reads, the daemon resumes and answers every request.
  for (int i = 0; i < 4000; ++i) {
    ASSERT_EQ(flood.next().type,
              static_cast<std::uint8_t>(FrameType::kServerStatus))
        << "reply " << i;
  }
}

TEST(DaemonE2E, FailedStartLeavesNoDescriptorOpen) {
  DaemonConfig config;
  config.socket_path = "/nonexistent-mmlptd-dir/daemon.sock";  // bind fails
  Daemon daemon(config);
  const std::size_t before = count_entries("/proc/self/fd");
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(daemon.start(), SystemError);
    EXPECT_FALSE(daemon.running());
  }
  EXPECT_EQ(count_entries("/proc/self/fd"), before);
}

TEST(DaemonE2E, StatusDocumentExposesAdmissionState) {
  DaemonConfig config;
  config.socket_path = temp_socket_path();
  config.admission.tenant_pps = 5000.0;
  Daemon daemon(config);
  daemon.start();

  Client client(config.socket_path, "ops");
  const auto spec = small_spec(4, 1);
  const auto result = client.run_job(spec);
  EXPECT_EQ(result.outcome, JobOutcome::kOk);

  const auto status = client.server_status();
  EXPECT_NE(status.find("\"daemon\":\"mmlptd\""), std::string::npos);
  EXPECT_NE(status.find("\"protocol_version\":1"), std::string::npos);
  EXPECT_NE(status.find("\"jobs_admitted\":1"), std::string::npos);
  EXPECT_NE(status.find("\"tenant\":\"ops\""), std::string::npos);
  // The per-tenant bucket really metered the job's probes.
  EXPECT_EQ(status.find("\"tokens_granted\":0"), std::string::npos);
}

TEST(DaemonE2E, StopSetSummaryTravelsOverTheSocket) {
  const auto cache = "/tmp/mmlptd-test-" + std::to_string(::getpid()) +
                     "-stopset.mtps";
  std::remove(cache.c_str());
  DaemonConfig config;
  config.socket_path = temp_socket_path();
  config.topology_cache = cache;
  Daemon daemon(config);
  daemon.start();

  Client client(config.socket_path, "dt");
  auto spec = small_spec(8, 4);
  spec.shared_prefix = 3;  // common first hops: the stop set pays off
  const auto result = client.run_job(spec);
  EXPECT_EQ(result.outcome, JobOutcome::kOk);
  // The same object as the "stop_set" of mmlpt_fleet's summary line; the
  // cache starts empty, so consulting it saved nothing.
  const auto& summary = result.stop_set_summary;
  EXPECT_TRUE(summary.starts_with(R"({"consulted":true,"visible_hops":)"))
      << summary;
  EXPECT_NE(summary.find(R"("probes_saved":0,"traces_stopped":0,)"
                         R"("union_digest":")"),
            std::string::npos)
      << summary;
  EXPECT_EQ(summary.size() - summary.rfind(R"("union_digest":")"),
            std::string(R"("union_digest":"0123456789abcdef"})").size())
      << summary;

  daemon.stop();
  std::remove(cache.c_str());
}

TEST(DaemonE2E, MetricsFrameServesThePrometheusRegistry) {
  const auto cache = "/tmp/mmlptd-test-" + std::to_string(::getpid()) +
                     "-metrics.mtps";
  std::remove(cache.c_str());
  DaemonConfig config;
  config.socket_path = temp_socket_path();
  config.topology_cache = cache;  // stop-set families join the registry
  Daemon daemon(config);
  daemon.start();

  Client client(config.socket_path, "obs");
  auto spec = small_spec(6, 2);
  spec.shared_prefix = 3;
  const auto result = client.run_job(spec);
  EXPECT_EQ(result.outcome, JobOutcome::kOk);

  const auto text = client.metrics();
  // Prometheus text with the acceptance families: transport, admission,
  // stop-set, and the daemon's own job outcomes.
  EXPECT_NE(text.find("# TYPE mmlpt_transport_probes_sent_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("mmlpt_transport_probes_sent_total{transport=\"sim\"} "),
      std::string::npos);
  EXPECT_NE(text.find("mmlpt_admission_jobs_admitted_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("mmlpt_admission_jobs_active 0\n"), std::string::npos);
  EXPECT_NE(text.find("mmlpt_daemon_jobs_total{outcome=\"ok\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("mmlpt_stop_set_records_total"), std::string::npos);

  // A second job's counters accumulate in the same registry.
  const auto again = client.run_job(spec);
  EXPECT_EQ(again.outcome, JobOutcome::kOk);
  const auto after = client.metrics();
  EXPECT_NE(after.find("mmlpt_admission_jobs_admitted_total 2\n"),
            std::string::npos);
  EXPECT_NE(after.find("mmlpt_daemon_jobs_total{outcome=\"ok\"} 2\n"),
            std::string::npos);

  daemon.stop();
  std::remove(cache.c_str());
}

}  // namespace
}  // namespace mmlpt::daemon
