#include "daemon/server.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string_view>
#include <system_error>
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

/// Outbox bytes past which a job thread waits and the loop stops reading
/// the connection.
constexpr std::size_t kOutboxCap = 256u << 10;

/// How long a listener paused by a failed accept() (EMFILE, ENFILE) waits
/// for a connection to close before accept() is tried again anyway.
constexpr int kAcceptRetryMs = 100;

}  // namespace

// ---- Connection --------------------------------------------------------

/// One accepted client. The loop thread owns every unguarded field; the
/// connection's job thread reads `fd`, `tenant` and `cancel` (all fixed
/// while it runs) and shares the guarded outbox state.
struct Daemon::Connection {
  explicit Connection(int socket) : fd(socket), reader(socket) {}
  ~Connection() { ::close(fd); }

  /// Send `frame`, or append it to the outbox when frames are already
  /// waiting there. With `wait_for_room` (job threads only) first wait
  /// while the outbox is over kOutboxCap. Frames to a vanished peer are
  /// dropped. Returns true when the outbox went from empty to non-empty,
  /// that is when the loop must start polling for POLLOUT.
  bool queue(const Frame& frame, bool wait_for_room) {
    const std::string bytes = encode_frame(frame);
    MutexLock lock(mutex);
    while (wait_for_room && !gone && outbox.size() > kOutboxCap) {
      room.wait(mutex);
    }
    const bool was_empty = outbox.empty();
    const std::size_t sent = was_empty ? send_now(bytes) : 0;
    if (gone) return false;
    outbox.append(bytes, sent);
    return was_empty && !outbox.empty();
  }

  /// Loop: write what the socket takes from the outbox.
  void flush() {
    MutexLock lock(mutex);
    const std::size_t sent = send_now(outbox);
    outbox.erase(0, gone ? outbox.size() : sent);
    if (outbox.size() <= kOutboxCap) room.notify_all();
  }

  /// poll(2) interest: read while under the cap, write while queued.
  short events() {
    MutexLock lock(mutex);
    short wanted = 0;
    if (reading && outbox.size() <= kOutboxCap) wanted |= POLLIN;
    if (!outbox.empty()) wanted |= POLLOUT;
    return wanted;
  }

  [[nodiscard]] bool has_room() {
    MutexLock lock(mutex);
    return outbox.size() <= kOutboxCap;
  }
  [[nodiscard]] bool job_running() {
    MutexLock lock(mutex);
    return busy;
  }
  /// Nothing left to write (a vanished peer's outbox is dropped).
  [[nodiscard]] bool flushed() {
    MutexLock lock(mutex);
    return outbox.empty();
  }

  const int fd;
  FrameReader reader;
  bool greeted = false;  ///< the Hello/HelloAck handshake is done
  bool reading = true;   ///< false after EOF, a read error or a refusal
  std::string tenant = "default";
  std::uint64_t job_id = 0;
  /// The job's token: set before `job` starts, reset after it is joined.
  std::unique_ptr<probe::CancelToken> cancel;

  Mutex mutex;
  CondVar room;  ///< the outbox fell to the cap, or the peer is gone
  std::string outbox MMLPT_GUARDED_BY(mutex);
  /// A write failed: the peer vanished, so frames to it are dropped.
  bool gone MMLPT_GUARDED_BY(mutex) = false;
  /// A job holds the connection, until just before its status is queued.
  bool busy MMLPT_GUARDED_BY(mutex) = false;
  std::thread job;  ///< declared last: it uses every field above

 private:
  /// Write what the socket takes without blocking; returns the bytes
  /// sent. A hard error (EPIPE: the peer vanished) latches `gone`, wakes
  /// a job thread waiting for room and cancels the job.
  std::size_t send_now(std::string_view bytes) MMLPT_REQUIRES(mutex) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n >= 0) {
        sent += static_cast<std::size_t>(n);
      } else if (errno != EINTR) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          gone = true;
          room.notify_all();
          if (cancel) cancel->request();
        }
        break;
      }
    }
    return sent;
  }
};

// ---- Daemon ------------------------------------------------------------

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      // Point the scheduler at the daemon registry before it is built
      // (metrics_ is declared first, so it is alive by then).
      fleet_([this] {
        config_.fleet.metrics = &metrics_;
        return config_.fleet;
      }()),
      stop_set_session_(config_.topology_cache, config_.consult_stop_set),
      admission_(config_.admission) {
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

  try {
    if (::pipe2(wake_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
      throw SystemError(std::string("cannot create daemon wake pipe: ") +
                        std::strerror(errno));
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK,
                          0);
    if (listen_fd_ < 0) {
      throw SystemError(std::string("cannot create unix socket: ") +
                        std::strerror(errno));
    }
    ::unlink(config_.socket_path.c_str());  // stale socket from a crash
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
      throw SystemError("cannot bind " + config_.socket_path + ": " +
                        std::strerror(errno));
    }
    if (::listen(listen_fd_, 16) != 0) {
      throw SystemError(std::string("cannot listen: ") +
                        std::strerror(errno));
    }
  } catch (...) {
    close_fds();
    throw;
  }

  stopping_.store(false);
  // relaxed: advisory liveness flag (see running()); the loop thread
  // synchronizes through its own spawn.
  running_.store(true, std::memory_order_relaxed);
  loop_thread_ = std::thread(&Daemon::loop, this);
}

void Daemon::stop() {
  // relaxed: the exchange only arbitrates which caller runs the
  // shutdown; all teardown ordering comes from the wake pipe + join.
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  stopping_.store(true);
  wake();
  loop_thread_.join();        // drained: every job joined
  stop_set_session_.flush();  // discoveries survive the shutdown
  close_fds();
}

void Daemon::close_fds() {
  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void Daemon::wake() {
  const char byte = 1;
  // A full pipe already holds a pending wakeup.
  [[maybe_unused]] const auto n = ::write(wake_pipe_[1], &byte, 1);
}

void Daemon::loop() {
  bool accepting = true;
  std::vector<pollfd> fds;
  for (;;) {
    const bool stopping = stopping_.load();
    if (stopping && listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      ::unlink(config_.socket_path.c_str());
    }
    if (reap(stopping)) accepting = true;
    if (stopping && connections_.empty()) return;

    fds.assign({{wake_pipe_[0], POLLIN, 0},
                {accepting ? listen_fd_ : -1, POLLIN, 0}});
    for (const auto& connection : connections_) {
      const short events = connection->events();
      fds.push_back({events != 0 ? connection->fd : -1, events, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(),
                             accepting ? -1 : kAcceptRetryMs);
    if (ready < 0) continue;  // EINTR (or a transient ENOMEM): poll again
    if (ready == 0) accepting = true;  // a paused listener retries
    if (fds[0].revents != 0) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof drain) > 0) {
      }
    }
    if (fds[1].revents != 0) {
      const int client = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_CLOEXEC);
      if (client >= 0) {
        connections_.push_back(std::make_unique<Connection>(client));
        connections_accepted_.fetch_add(1);
      } else if (errno != EAGAIN && errno != EINTR &&
                 errno != ECONNABORTED) {
        accepting = false;  // EMFILE, ENFILE, ENOBUFS: until one closes
      }
    }
    // Indices match: accept appends after the polled connections.
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      Connection& connection = *connections_[i - 2];
      if ((revents & (POLLOUT | POLLERR | POLLHUP)) != 0) connection.flush();
      read_frames(connection, (revents & (POLLIN | POLLERR | POLLHUP)) != 0);
    }
  }
}

/// Join finished jobs and close finished connections. Returns true when
/// a connection closed.
bool Daemon::reap(bool stopping) {
  for (const auto& connection : connections_) {
    if (connection->job.joinable() && !connection->job_running()) {
      connection->job.join();  // its status is queued: it is exiting
      connection->cancel.reset();
    }
  }
  const auto closed = std::erase_if(connections_, [stopping](const auto& c) {
    return !c->job.joinable() && (!c->reading || stopping) && c->flushed();
  });
  connections_active_.store(connections_.size());
  return closed > 0;
}

/// Decode and handle buffered frames while the outbox has room, after
/// one read when the socket is `readable`. EOF, a read error or a
/// protocol error ends reading and cancels the running job.
void Daemon::read_frames(Connection& connection, bool readable) {
  try {
    if (readable && connection.reading && connection.has_room() &&
        !connection.reader.fill()) {
      connection.reading = false;
    }
    while (connection.reading && connection.has_room()) {
      const auto frame = connection.reader.next();
      if (!frame) return;
      handle_frame(connection, *frame);
    }
  } catch (const ParseError& e) {
    // Torn/oversized frame or schema violation: the stream cannot be
    // resynchronized. Tell the peer why, then drop the connection.
    connection.queue(encode_text(FrameType::kError,
                                 std::string("protocol error: ") + e.what()),
                     false);
    connection.reading = false;
  } catch (const std::exception&) {
    connection.reading = false;  // read error: treat like a vanished peer
  }
  if (!connection.reading && connection.cancel) connection.cancel->request();
}

void Daemon::handle_frame(Connection& connection, const Frame& frame) {
  if (!is_known_frame_type(frame.type)) return;  // skip, don't refuse
  if (!connection.greeted) {
    greet(connection, frame);
    return;
  }
  switch (static_cast<FrameType>(frame.type)) {
    case FrameType::kJobRequest:
      accept_job(connection, decode_job_request(frame));
      return;
    case FrameType::kCancel:
      // An unknown id means the job already finished: nothing to do.
      if (connection.cancel &&
          connection.job_id == decode_cancel(frame)) {
        connection.cancel->request();
      }
      return;
    case FrameType::kStatusRequest:
      connection.queue(encode_text(FrameType::kServerStatus, status_json()),
                       false);
      return;
    case FrameType::kMetricsRequest:
      connection.queue(encode_text(FrameType::kMetrics, metrics_.render()),
                       false);
      return;
    default:
      // A duplicate hello or a daemon->client frame from a client:
      // harmless, ignore rather than poison a healthy connection.
      return;
  }
}

/// Version negotiation. A known non-Hello frame, a magic mismatch or a
/// version range outside ours is refused with an Error frame before any
/// job state exists.
void Daemon::greet(Connection& connection, const Frame& frame) {
  std::string refusal = "handshake violation: expected hello frame";
  if (frame.type == static_cast<std::uint8_t>(FrameType::kHello)) {
    const Hello hello = decode_hello(frame);  // ParseError -> read_frames
    if (const auto version = negotiate_version(hello)) {
      connection.tenant = hello.tenant.empty() ? "default" : hello.tenant;
      connection.greeted = true;
      connection.queue(encode_hello_ack(*version), false);
      return;
    }
    refusal = "unsupported protocol version: daemon speaks " +
              std::to_string(kProtocolVersion) + ", client offered [" +
              std::to_string(hello.min_version) + ", " +
              std::to_string(hello.max_version) + "]";
  }
  connection.queue(encode_text(FrameType::kError, refusal), false);
  connection.reading = false;
}

/// Start the job on its own thread, or refuse it with kRejected: during
/// shutdown, while the connection's job runs (the client waits for each
/// JobStatus before its next request, so nothing queues daemon-side), or
/// over the admission caps.
void Daemon::accept_job(Connection& connection, JobRequest request) {
  const std::uint64_t job_id = request.job_id;
  std::string refusal;
  if (stopping_.load()) {
    refusal = "daemon shutting down";
  } else if (connection.job_running()) {
    refusal = "connection busy: one job at a time";
  } else if (const AdmissionTicket ticket =
                 admission_.try_admit(connection.tenant);
             !ticket.admitted) {
    jobs_refused_->add();
    refusal = ticket.reason;
  } else {
    if (connection.job.joinable()) connection.job.join();  // exiting
    connection.job_id = job_id;
    connection.cancel = std::make_unique<probe::CancelToken>();
    {
      const MutexLock lock(connection.mutex);
      connection.busy = true;
    }
    try {
      connection.job = std::thread(&Daemon::run_job, this,
                                   std::ref(connection), std::move(request),
                                   ticket.limiter);
      return;
    } catch (const std::system_error& e) {  // out of threads: undo
      admission_.release(connection.tenant);
      connection.cancel.reset();
      const MutexLock lock(connection.mutex);
      connection.busy = false;
      refusal = std::string("cannot start the job: ") + e.what();
    }
  }
  connection.queue(
      encode_job_status({job_id, JobOutcome::kRejected, refusal, 0, 0}),
      false);
}

/// A job thread: run one admitted job, streaming its frames, then free
/// the connection and queue the final status.
void Daemon::run_job(Connection& connection, const JobRequest& request,
                     orchestrator::RateLimiter* tenant_limiter) {
  const auto send = [&](const Frame& frame) {
    if (connection.queue(frame, /*wait_for_room=*/true)) wake();
  };
  JobStatus status{request.job_id, JobOutcome::kOk, "", 0, 0};
  const auto total =
      static_cast<std::uint64_t>(request.spec.destination_count());

  FleetJobHooks hooks;
  hooks.tenant_limiter = tenant_limiter;
  hooks.cancel = connection.cancel.get();
  hooks.on_line = [&](std::size_t, std::string line) {
    ++status.lines;
    send(encode_job_text(FrameType::kResultLine, request.job_id, line));
  };
  hooks.on_progress = [&](std::uint64_t merged,
                          const FleetJobCounters& so_far) {
    if (merged % kProgressEvery == 0 || merged == total) {
      send(encode_progress({request.job_id, merged, total, so_far.packets}));
    }
  };

  try {
    const FleetJobCounters counters =
        run_fleet_job(fleet_, &stop_set_session_, request.spec, config_.sim,
                      hooks);
    if (stop_set_session_.active()) {
      JsonWriter summary;
      stop_set_session_.write_summary(summary,
                                      counters.probes_saved_by_stop_set,
                                      counters.traces_stopped);
      send(encode_job_text(FrameType::kStopSetSummary, request.job_id,
                           summary.view()));
    }
    status.packets = counters.packets;
    jobs_completed_->add();
  } catch (const probe::CanceledError& e) {
    status.outcome = JobOutcome::kCanceled;
    status.message = e.what();
    jobs_canceled_->add();
  } catch (const std::exception& e) {
    status.outcome = JobOutcome::kFailed;
    status.message = e.what();
    jobs_failed_->add();
  }

  admission_.release(connection.tenant);
  {
    // Free the connection before its status goes out, so a client that
    // answers the status at once is not refused as busy. Nothing after
    // this blocks: the loop may already be joining this thread.
    const MutexLock lock(connection.mutex);
    connection.busy = false;
  }
  connection.queue(encode_job_status(status), /*wait_for_room=*/false);
  wake();
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
  w.key("connections_active");
  w.value(connections_active_.load());
  w.key("connections_accepted");
  w.value(connections_accepted_.load());
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
