#include "daemon/server.h"

#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.h"
#include "common/json.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "daemon/frame_io.h"

namespace mmlpt::daemon {
namespace {

/// Progress frame cadence: every this-many merged destinations (and
/// always on the last one).
constexpr std::uint64_t kProgressEvery = 8;

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

}  // namespace

// ---- Connection --------------------------------------------------------

/// One accepted client: a reader thread decoding request frames and a
/// worker thread running that client's job (one at a time per
/// connection, concurrent across connections through the shared
/// scheduler). All daemon->client frames go through send(), which
/// serializes writes and latches peer_gone_ on the first failed write so
/// a vanished client cancels its own job instead of wedging the daemon.
class Daemon::Connection {
 public:
  Connection(Daemon& daemon, int fd)
      : daemon_(daemon), fd_(fd), reader_(fd) {}

  ~Connection() { join(); }

  void start() { thread_ = std::thread(&Connection::run, this); }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] bool finished() const noexcept {
    return finished_.load(std::memory_order_acquire);
  }

 private:
  void run() {
    bool peer_disconnected = false;
    try {
      if (handshake()) {
        worker_ = std::thread(&Connection::worker_loop, this);
        bool open = true;
        while (open) {
          if (!poll_readable()) break;  // daemon shutdown: drain
          if (!reader_.fill()) {
            peer_disconnected = true;
            break;
          }
          while (auto frame = reader_.next()) handle_frame(*frame);
        }
      }
    } catch (const ParseError& e) {
      // Torn/oversized frame or schema violation: the stream cannot be
      // resynchronized. Tell the peer why, then drop the connection.
      send(encode_error({std::string("protocol error: ") + e.what()}));
      peer_disconnected = true;
    } catch (const std::exception&) {
      peer_disconnected = true;  // read error: treat like a vanished peer
    }
    stop_worker(peer_disconnected);
    ::close(fd_);
    finished_.store(true, std::memory_order_release);
  }

  /// Wait until the connection fd is readable. Returns false when the
  /// daemon's shutdown pipe fired instead.
  [[nodiscard]] bool poll_readable() {
    struct pollfd fds[2] = {{fd_, POLLIN, 0},
                            {daemon_.shutdown_pipe_[0], POLLIN, 0}};
    for (;;) {
      const int n = ::poll(fds, 2, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw SystemError(std::string("connection poll failed: ") +
                          std::strerror(errno));
      }
      if (fds[1].revents != 0) return false;
      if (fds[0].revents != 0) return true;
    }
  }

  /// Version negotiation. Unknown frame types before the Hello are
  /// skipped (forward compatibility); a known non-Hello frame, a magic
  /// mismatch or a version range outside ours is refused with an Error
  /// frame before any job state exists.
  [[nodiscard]] bool handshake() {
    for (;;) {
      if (!poll_readable()) return false;  // shutdown mid-handshake
      if (!reader_.fill()) return false;   // EOF before hello
      while (auto frame = reader_.next()) {
        if (!is_known_frame_type(frame->type)) continue;
        if (frame->type != static_cast<std::uint8_t>(FrameType::kHello)) {
          send(encode_error({"handshake violation: expected hello frame"}));
          return false;
        }
        const Hello hello = decode_hello(*frame);  // ParseError -> run()
        const auto version = negotiate_version(hello);
        if (!version) {
          send(encode_error(
              {"unsupported protocol version: daemon speaks " +
               std::to_string(kProtocolVersion) + ", client offered [" +
               std::to_string(hello.min_version) + ", " +
               std::to_string(hello.max_version) + "]"}));
          return false;
        }
        tenant_ = hello.tenant.empty() ? "default" : hello.tenant;
        send(encode_hello_ack({*version}));
        return true;
      }
    }
  }

  void handle_frame(const Frame& frame) {
    if (!is_known_frame_type(frame.type)) return;  // skip, don't refuse
    switch (static_cast<FrameType>(frame.type)) {
      case FrameType::kJobRequest:
        accept_job(decode_job_request(frame));
        return;
      case FrameType::kCancel:
        cancel_job(decode_cancel(frame).job_id);
        return;
      case FrameType::kStatusRequest:
        send(encode_server_status({daemon_.status_json()}));
        return;
      case FrameType::kMetricsRequest:
        send(encode_metrics({daemon_.metrics_.render()}));
        return;
      default:
        // A duplicate hello or a daemon->client frame from a client:
        // harmless, ignore rather than poison a healthy connection.
        return;
    }
  }

  /// Hand the job to the worker, or refuse it with kRejected when this
  /// connection already has one (the client waits for each JobStatus
  /// before its next request, so nothing is queued daemon-side).
  void accept_job(JobRequest request) {
    std::optional<JobStatus> refusal;
    {
      const MutexLock lock(job_mutex_);
      if (worker_stop_) {
        refusal = JobStatus{request.job_id, JobOutcome::kRejected,
                            "daemon shutting down", 0, 0};
      } else if (job_active_) {
        refusal = JobStatus{request.job_id, JobOutcome::kRejected,
                            "connection busy: one job at a time", 0, 0};
      } else {
        job_active_ = true;
        active_job_id_ = request.job_id;
        active_cancel_ = std::make_shared<probe::CancelToken>();
        // relaxed: latched flag; a write already failed, so no one would
        // read this job's frames. A missed read is caught by send().
        if (peer_gone_.load(std::memory_order_relaxed)) {
          active_cancel_->request();
        }
        pending_ = std::move(request);
      }
    }
    if (refusal) {
      send(encode_job_status(*refusal));
    } else {
      job_cv_.notify_one();
    }
  }

  void cancel_job(std::uint64_t job_id) {
    const MutexLock lock(job_mutex_);
    if (job_active_ && active_job_id_ == job_id) active_cancel_->request();
    // Unknown id: the job already finished — its final status frame is
    // on the wire or gone; nothing to do.
  }

  /// Runs each accepted job. An accepted job always runs to its status
  /// (drain); stop_worker() only ends the loop once nothing is pending.
  void worker_loop() {
    for (;;) {
      JobRequest request;
      std::shared_ptr<probe::CancelToken> cancel;
      {
        MutexLock lock(job_mutex_);
        while (!worker_stop_ && !pending_) job_cv_.wait(job_mutex_);
        if (!pending_) break;
        request = std::move(*pending_);
        pending_.reset();
        cancel = active_cancel_;
      }
      send(encode_job_status(run_one_job(request, *cancel)));
    }
  }

  /// Run one accepted job and return its final status, with the
  /// connection already free for the next request.
  [[nodiscard]] JobStatus run_one_job(const JobRequest& request,
                                      probe::CancelToken& cancel) {
    AdmissionTicket ticket = daemon_.admission_.try_admit(tenant_);
    if (!ticket.admitted) {
      daemon_.jobs_refused_->add();
      finish_job();
      return {request.job_id, JobOutcome::kRejected, ticket.reason, 0, 0};
    }

    JobStatus status;
    status.job_id = request.job_id;
    std::uint64_t lines = 0;
    const auto total =
        static_cast<std::uint64_t>(request.spec.destination_count());

    FleetJobHooks hooks;
    hooks.tenant_limiter = ticket.limiter;
    hooks.cancel = &cancel;
    hooks.on_line = [&](std::size_t, std::string line) {
      ++lines;
      send(encode_result_line({request.job_id, std::move(line)}));
    };
    hooks.on_progress = [&](std::uint64_t merged,
                            const FleetJobCounters& so_far) {
      if (merged % kProgressEvery == 0 || merged == total) {
        send(encode_progress({request.job_id, merged, total, so_far.packets}));
      }
    };

    try {
      const FleetJobCounters counters =
          run_fleet_job(daemon_.fleet_, &daemon_.stop_set_session_,
                        request.spec, daemon_.config_.sim, hooks);
      if (const auto* stop_set = daemon_.stop_set_session_.stop_set()) {
        send(encode_stop_set_summary(
            {request.job_id,
             stop_set_summary_text(*stop_set,
                                   counters.probes_saved_by_stop_set,
                                   counters.traces_stopped)}));
      }
      status.outcome = JobOutcome::kOk;
      status.packets = counters.packets;
      daemon_.jobs_completed_->add();
    } catch (const probe::CanceledError& e) {
      status.outcome = JobOutcome::kCanceled;
      status.message = e.what();
      daemon_.jobs_canceled_->add();
    } catch (const std::exception& e) {
      status.outcome = JobOutcome::kFailed;
      status.message = e.what();
      daemon_.jobs_failed_->add();
    }
    status.lines = lines;

    daemon_.admission_.release(tenant_);
    finish_job();
    return status;
  }

  /// Free the connection for its next job; runs before the job's final
  /// status is sent, so a client that answers it at once is not refused.
  void finish_job() {
    const MutexLock lock(job_mutex_);
    job_active_ = false;
    active_cancel_.reset();
  }

  /// Stop the worker. A disconnected peer's job is canceled (no one is
  /// listening); on daemon shutdown it drains to completion.
  void stop_worker(bool peer_disconnected) {
    {
      const MutexLock lock(job_mutex_);
      if (peer_disconnected) {
        // relaxed: latched flag; readers only use it to suppress writes
        // to a peer that is already gone, so no ordering is needed.
        peer_gone_.store(true, std::memory_order_relaxed);
        if (active_cancel_) active_cancel_->request();
      }
      // The worker only checks this between jobs, so an accepted job
      // always finishes (drain) — unless the token above aborts it.
      worker_stop_ = true;
    }
    job_cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }

  /// Serialize all writes to the peer. The first failed write (EPIPE —
  /// the peer vanished) latches peer_gone_ and fires the active job's
  /// cancel token; later sends are silently dropped.
  void send(const Frame& frame) {
    const MutexLock lock(write_mutex_);
    // relaxed (both sites): latched flag; the only consequence of a
    // stale read is one extra write attempt, which re-latches it.
    if (peer_gone_.load(std::memory_order_relaxed)) return;
    try {
      write_frame(fd_, frame);
    } catch (const std::exception&) {
      // relaxed: latching the same flag as above.
      peer_gone_.store(true, std::memory_order_relaxed);
      const MutexLock job_lock(job_mutex_);
      if (active_cancel_) active_cancel_->request();
    }
  }

  Daemon& daemon_;
  int fd_;
  FrameReader reader_;
  std::string tenant_ = "default";
  std::thread thread_;
  std::atomic<bool> finished_{false};
  std::atomic<bool> peer_gone_{false};

  Mutex write_mutex_;  ///< serializes write_frame on fd_

  // Job state: at most one accepted job, guarded by job_mutex_. It is
  // active from accept_job() until finish_job(); pending_ holds it until
  // the worker picks it up. Lock order: write_mutex_ before job_mutex_
  // (see send()); never the reverse — every status send happens with
  // job_mutex_ released.
  Mutex job_mutex_;
  CondVar job_cv_;
  std::optional<JobRequest> pending_ MMLPT_GUARDED_BY(job_mutex_);
  bool worker_stop_ MMLPT_GUARDED_BY(job_mutex_) = false;
  bool job_active_ MMLPT_GUARDED_BY(job_mutex_) = false;
  std::uint64_t active_job_id_ MMLPT_GUARDED_BY(job_mutex_) = 0;
  std::shared_ptr<probe::CancelToken> active_cancel_
      MMLPT_GUARDED_BY(job_mutex_);
  std::thread worker_;
};

// ---- Daemon ------------------------------------------------------------

namespace {

/// Point the scheduler's config at the daemon registry before the
/// scheduler is constructed (metrics_ is declared first, so it is alive
/// by the time fleet_ initializes).
orchestrator::FleetConfig with_registry(orchestrator::FleetConfig fleet,
                                        obs::MetricsRegistry* registry) {
  fleet.metrics = registry;
  return fleet;
}

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      fleet_(with_registry(config_.fleet, &metrics_)),
      stop_set_session_(config_.topology_cache, config_.consult_stop_set),
      admission_(config_.admission) {
  config_.fleet.metrics = &metrics_;
  stop_set_session_.instrument(metrics_);
  admission_.instrument(metrics_);
  const auto job_counter = [this](const char* outcome, const char* help) {
    return metrics_.counter("mmlpt_daemon_jobs_total", help,
                            {{"outcome", outcome}});
  };
  jobs_completed_ =
      job_counter("ok", "Jobs finished, labeled by final outcome");
  jobs_canceled_ = job_counter("canceled", "");
  jobs_failed_ = job_counter("failed", "");
  jobs_refused_ = job_counter("rejected", "");
}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  // relaxed: single-caller idempotence check; thread visibility comes
  // from the thread spawn below, not this flag.
  if (running_.load(std::memory_order_relaxed)) return;
  if (config_.socket_path.empty()) {
    throw ConfigError("mmlptd needs a socket path");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof addr.sun_path) {
    throw ConfigError("socket path too long for AF_UNIX: " +
                      config_.socket_path);
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);

  if (::pipe(shutdown_pipe_) != 0) {
    throw SystemError("cannot create daemon shutdown pipe");
  }
  set_cloexec(shutdown_pipe_[0]);
  set_cloexec(shutdown_pipe_[1]);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw SystemError(std::string("cannot create unix socket: ") +
                      std::strerror(errno));
  }
  set_cloexec(listen_fd_);
  ::unlink(config_.socket_path.c_str());  // stale socket from a crash
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw SystemError("cannot bind " + config_.socket_path + ": " +
                      std::strerror(err));
  }
  if (::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw SystemError(std::string("cannot listen: ") + std::strerror(err));
  }

  // relaxed: advisory liveness flag (see running()); the accept thread
  // synchronizes through its own spawn.
  running_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread(&Daemon::accept_loop, this);
}

void Daemon::accept_loop() {
  for (;;) {
    struct pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                            {shutdown_pipe_[0], POLLIN, 0}};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // shutdown
    if (fds[0].revents == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    set_cloexec(client);
    const MutexLock lock(connections_mutex_);
    reap_finished_connections();
    connections_.push_back(std::make_unique<Connection>(*this, client));
    ++connections_accepted_;
    connections_.back()->start();
  }
}

void Daemon::reap_finished_connections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished()) {
      (*it)->join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Daemon::stop() {
  // relaxed: the exchange only arbitrates which caller runs the
  // shutdown; all teardown ordering comes from the pipe write + joins.
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  // One byte on the never-drained pipe wakes the accept loop and every
  // connection poller, level-triggered.
  const char byte = 1;
  [[maybe_unused]] const auto n = ::write(shutdown_pipe_[1], &byte, 1);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(config_.socket_path.c_str());
  {
    // Drain: connection threads finish their accepted jobs and exit;
    // join them all.
    const MutexLock lock(connections_mutex_);
    for (auto& connection : connections_) connection->join();
    connections_.clear();
  }
  stop_set_session_.flush();  // discoveries survive the shutdown
  for (int& fd : shutdown_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

std::string Daemon::status_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("daemon");
  w.value("mmlptd");
  w.key("protocol_version");
  w.value(static_cast<std::uint64_t>(kProtocolVersion));
  w.key("socket");
  w.value(config_.socket_path);
  {
    const MutexLock lock(connections_mutex_);
    std::size_t active = 0;
    for (const auto& connection : connections_) {
      if (!connection->finished()) ++active;
    }
    w.key("connections_active");
    w.value(static_cast<std::uint64_t>(active));
    w.key("connections_accepted");
    w.value(connections_accepted_);
  }
  w.key("fleet");
  w.begin_object();
  w.key("jobs");
  w.value(static_cast<std::int64_t>(config_.fleet.jobs));
  w.key("pps");
  w.value(config_.fleet.pps);
  w.key("burst");
  w.value(static_cast<std::int64_t>(config_.fleet.burst));
  w.end_object();
  w.key("stop_set_active");
  w.value(stop_set_session_.active());
  w.key("admission");
  admission_.write_status(w);
  w.end_object();
  return std::move(w).take();
}

}  // namespace mmlpt::daemon
