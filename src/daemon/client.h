// Client side of the mmlptd protocol: connect to the daemon's unix
// socket, negotiate a version, submit fleet jobs and stream the response
// frames. This is the whole of what the thin mmlpt_client tool does —
// the library form exists so the e2e tests can run real clients
// in-process against an in-process Daemon.
//
// A Client is single-threaded: one job (or status query) at a time, on
// the calling thread. Concurrency is the DAEMON's business — run many
// clients, not many threads through one client.
#ifndef MMLPT_DAEMON_CLIENT_H
#define MMLPT_DAEMON_CLIENT_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "daemon/frame_io.h"
#include "daemon/protocol.h"

namespace mmlpt::daemon {

/// Per-job streaming hooks and cancellation knobs.
struct ClientRunOptions {
  /// Each JSONL destination line, in destination order (no newline).
  std::function<void(const std::string& line)> on_line;
  /// Each Progress frame.
  std::function<void(const Progress&)> on_progress;
  /// Send a Cancel frame after this many result lines (0 = never) —
  /// deterministic mid-trace cancellation for tests and the CLI's
  /// --cancel-after-lines flag.
  std::uint64_t cancel_after_lines = 0;
  /// When >= 0: an fd (e.g. ShutdownSignal::fd()) polled next to the
  /// socket; it becoming readable sends a Cancel frame once.
  int cancel_fd = -1;
};

/// What the daemon said about a finished job.
struct ClientJobResult {
  JobOutcome outcome = JobOutcome::kFailed;
  std::string message;
  std::uint64_t lines = 0;
  std::uint64_t packets = 0;
  std::string stop_set_summary;  ///< empty unless the daemon has a stop set
};

class Client {
 public:
  /// Connect and complete the Hello/HelloAck handshake. Throws
  /// SystemError when the socket cannot be reached and Error when the
  /// daemon refuses the handshake.
  Client(const std::string& socket_path, const std::string& tenant);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] std::uint32_t negotiated_version() const noexcept {
    return version_;
  }

  /// Run one job to completion, streaming frames through `options`.
  /// Returns the final JobStatus; throws Error if the daemon sends an
  /// Error frame or the connection dies mid-job.
  [[nodiscard]] ClientJobResult run_job(const FleetJobSpec& spec,
                                        const ClientRunOptions& options = {});

  /// Fetch the daemon's machine-parsable status document.
  [[nodiscard]] std::string server_status();

  /// Fetch the daemon's Prometheus-text metrics exposition.
  [[nodiscard]] std::string metrics();

 private:
  /// Block for the next frame (poll + fill + decode). Returns nullopt
  /// only when `wake_fd` (>= 0) became readable first; throws Error on
  /// EOF. Frames of unknown type are returned too (callers skip them).
  [[nodiscard]] std::optional<Frame> read_frame(int wake_fd);

  /// Read up to the next frame of type `reply` and return it, skipping
  /// any other kind; an Error frame first throws Error("<refusal>: ...").
  [[nodiscard]] Frame await_reply(FrameType reply, const char* refusal);

  int fd_ = -1;
  FrameReader reader_;
  std::uint32_t version_ = 0;
  std::uint64_t next_job_id_ = 1;
};

}  // namespace mmlpt::daemon

#endif  // MMLPT_DAEMON_CLIENT_H
