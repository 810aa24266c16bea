// mmlptd: the measurement daemon. ONE privileged process owns the whole
// probing stack — FleetScheduler (fleet-wide RateLimiter) and
// StopSetSession — and serves trace jobs to many cheap unprivileged
// clients over a unix stream socket speaking the framed protocol in
// protocol.h. Every job probes the Fakeroute simulator.
//
// Concurrency shape: one loop thread polls the listener, a wake pipe and
// every connection. It accepts, reads and decodes frames, runs each
// connection's handshake, makes admission decisions, answers status and
// metrics requests, sends refusals and reaps closed connections. Each
// admitted job runs on its own thread, which the loop starts and joins,
// through the SHARED scheduler (per-job determinism comes from the job
// spec's seed alone). A connection runs one job at a time: a JobRequest
// that arrives while its job runs is refused with kRejected. So the
// daemon holds 1 + running-jobs threads, bounded by AdmissionLimits,
// however many clients sit idle.
//
// Every frame to a client goes through its connection's queue(): with
// nothing queued it is sent at once with a non-blocking send, else it
// joins an outbox the loop flushes on POLLOUT. A job thread waits while
// its outbox is over a constant cap, and the loop stops reading such a
// connection, so a client that never reads blocks neither the loop nor
// other tenants and costs bounded memory. When accept() runs out of
// descriptors (EMFILE/ENFILE) the loop stops polling the listener until
// a connection closes (or a short retry timer fires).
//
// Cancellation: a kCancel frame (or the client disconnecting) fires the
// job's probe::CancelToken; in-flight tickets resolve through
// TransportQueue::cancel and the job unwinds as probe::CanceledError —
// other tenants' jobs never notice.
//
// Shutdown (stop()): the listener closes and the socket is unlinked, idle
// connections close, new JobRequests are refused, running jobs finish
// (drain, not abort) and their frames are flushed, then the
// StopSetSession is flushed.
#ifndef MMLPT_DAEMON_SERVER_H
#define MMLPT_DAEMON_SERVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemon/admission.h"
#include "daemon/fleet_job.h"
#include "daemon/protocol.h"
#include "fakeroute/simulator.h"
#include "obs/metrics.h"
#include "orchestrator/fleet.h"
#include "orchestrator/stop_set.h"

namespace mmlpt::daemon {

struct DaemonConfig {
  std::string socket_path;
  orchestrator::FleetConfig fleet;  ///< shared scheduler (jobs/pps/burst)
  AdmissionLimits admission;
  /// Stop-set store shared across ALL clients ("" = feature off).
  std::string topology_cache;
  bool consult_stop_set = true;
  fakeroute::SimConfig sim;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind + listen on config.socket_path and spawn the loop thread.
  /// Throws SystemError when the socket cannot be set up; a failed start
  /// leaves no descriptor open.
  void start();

  /// Drain-and-exit: see the file comment. Idempotent; also runs from
  /// the destructor if the caller forgot.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    // relaxed: advisory liveness flag; start()/stop() synchronize with
    // the loop thread through its spawn and join, not here.
    return running_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const DaemonConfig& config() const noexcept { return config_; }
  [[nodiscard]] AdmissionController& admission() noexcept { return admission_; }
  /// The daemon status document sent in ServerStatus frames.
  [[nodiscard]] std::string status_json() const;
  /// The process-wide registry behind Metrics frames: every subsystem —
  /// transport backends, limiter, stop set, admission — registers here.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }

 private:
  struct Connection;

  void loop();
  [[nodiscard]] bool reap(bool stopping);
  void read_frames(Connection& connection, bool readable);
  void handle_frame(Connection& connection, const Frame& frame);
  void greet(Connection& connection, const Frame& frame);
  void accept_job(Connection& connection, JobRequest request);
  void run_job(Connection& connection, const JobRequest& request,
               orchestrator::RateLimiter* tenant_limiter);
  void wake();
  void close_fds();

  DaemonConfig config_;
  /// Declared before fleet_: the scheduler (and everything it builds)
  /// holds instrument pointers into this registry.
  obs::MetricsRegistry metrics_;
  orchestrator::FleetScheduler fleet_;
  orchestrator::StopSetSession stop_set_session_;
  AdmissionController admission_;

  // Job-outcome counters (one family, labeled by outcome), bumped as
  // jobs finish or are refused.
  obs::Counter* jobs_completed_ = nullptr;
  obs::Counter* jobs_canceled_ = nullptr;
  obs::Counter* jobs_failed_ = nullptr;
  obs::Counter* jobs_refused_ = nullptr;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< [read, write], both non-blocking
  /// Owned by the loop thread; status_json() reads only the counters.
  std::vector<std::unique_ptr<Connection>> connections_;
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::thread loop_thread_;  ///< declared last: it uses every member above
};

}  // namespace mmlpt::daemon

#endif  // MMLPT_DAEMON_SERVER_H
