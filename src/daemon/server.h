// mmlptd: the measurement daemon. ONE privileged process owns the whole
// probing stack — FleetScheduler (fleet-wide RateLimiter) and
// StopSetSession — and serves trace jobs to many cheap unprivileged
// clients over a unix stream socket speaking the framed protocol in
// protocol.h. Every job probes the Fakeroute simulator.
//
// Concurrency shape:
//   * one accept thread polls { listen fd, shutdown pipe };
//   * one thread per connection polls { conn fd, shutdown pipe } and
//     decodes request frames;
//   * each connection runs one job at a time on its worker thread,
//     through the SHARED scheduler (per-job determinism comes from the
//     job spec's seed alone), streaming ResultLine / Progress frames back
//     under a per-connection write mutex;
//   * a JobRequest that arrives while the connection's job is running is
//     refused with a kRejected status (daemon::Client waits for each
//     JobStatus before its next request), so nothing queues daemon-side.
//
// Cancellation: a kCancel frame (or the client disconnecting) fires the
// job's probe::CancelToken; in-flight tickets resolve through
// TransportQueue::cancel and the job unwinds as probe::CanceledError —
// other tenants' jobs never notice.
//
// Shutdown (stop()): close the listener, wake every connection thread
// through the shutdown pipe, SHUT_RDWR idle connections, let accepted
// jobs finish (drain, not abort), join everything, flush the
// StopSetSession, unlink the socket.
#ifndef MMLPT_DAEMON_SERVER_H
#define MMLPT_DAEMON_SERVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
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

  /// Bind + listen on config.socket_path and spawn the accept thread.
  /// Throws SystemError when the socket cannot be set up.
  void start();

  /// Drain-and-exit: see the file comment. Idempotent; also runs from
  /// the destructor if the caller forgot.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    // relaxed: advisory liveness flag; start()/stop() synchronize with
    // the worker threads through join and the shutdown pipe, not here.
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
  class Connection;

  void accept_loop();
  void reap_finished_connections() MMLPT_REQUIRES(connections_mutex_);

  DaemonConfig config_;
  /// Declared before fleet_: the scheduler (and everything it builds)
  /// holds instrument pointers into this registry.
  obs::MetricsRegistry metrics_;
  orchestrator::FleetScheduler fleet_;
  orchestrator::StopSetSession stop_set_session_;
  AdmissionController admission_;

  // Job-outcome counters (one family, labeled by outcome), bumped by
  // connections as their jobs finish.
  obs::Counter* jobs_completed_ = nullptr;
  obs::Counter* jobs_canceled_ = nullptr;
  obs::Counter* jobs_failed_ = nullptr;
  obs::Counter* jobs_refused_ = nullptr;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int shutdown_pipe_[2] = {-1, -1};  ///< [read, write]; never drained
  std::thread accept_thread_;

  mutable Mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_
      MMLPT_GUARDED_BY(connections_mutex_);
  std::uint64_t connections_accepted_ MMLPT_GUARDED_BY(connections_mutex_) =
      0;
};

}  // namespace mmlpt::daemon

#endif  // MMLPT_DAEMON_SERVER_H
