#include "daemon/client.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.h"

namespace mmlpt::daemon {
namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    throw ConfigError("bad mmlptd socket path: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw SystemError(std::string("cannot create unix socket: ") +
                      std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw SystemError("cannot connect to mmlptd at " + path + ": " +
                      std::strerror(err));
  }
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  return fd;
}

}  // namespace

Client::Client(const std::string& socket_path, const std::string& tenant)
    : fd_(connect_unix(socket_path)), reader_(fd_) {
  try {
    Hello hello;
    hello.tenant = tenant;
    write_frame(fd_, encode_hello(hello));
    version_ = decode_hello_ack(
        await_reply(FrameType::kHelloAck, "daemon refused handshake"));
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<Frame> Client::read_frame(int wake_fd) {
  for (;;) {
    if (auto frame = reader_.next()) return frame;
    struct pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fd, POLLIN, 0}};
    const int count = wake_fd >= 0 ? 2 : 1;
    const int n = ::poll(fds, static_cast<nfds_t>(count), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SystemError(std::string("client poll failed: ") +
                        std::strerror(errno));
    }
    if (count == 2 && fds[1].revents != 0) return std::nullopt;
    if (fds[0].revents == 0) continue;
    if (!reader_.fill()) {
      throw Error(reader_.has_partial_frame()
                      ? "daemon closed the connection mid-frame"
                      : "daemon closed the connection");
    }
  }
}

ClientJobResult Client::run_job(const FleetJobSpec& spec,
                                const ClientRunOptions& options) {
  const std::uint64_t job_id = next_job_id_++;
  write_frame(fd_, encode_job_request({job_id, spec}));

  ClientJobResult result;
  bool cancel_sent = false;
  std::uint64_t lines = 0;
  int wake_fd = options.cancel_fd;
  const auto send_cancel_once = [&] {
    if (cancel_sent) return;
    write_frame(fd_, encode_cancel(job_id));
    cancel_sent = true;
  };

  for (;;) {
    const auto frame = read_frame(wake_fd);
    if (!frame) {  // wake_fd fired (a signal arrived): cancel, keep reading
      wake_fd = -1;
      send_cancel_once();
      continue;
    }
    switch (static_cast<FrameType>(frame->type)) {
      case FrameType::kResultLine: {
        const auto line = decode_job_text(*frame);
        if (line.job_id != job_id) break;
        ++lines;
        if (options.on_line) options.on_line(line.text);
        if (options.cancel_after_lines > 0 &&
            lines >= options.cancel_after_lines) {
          send_cancel_once();
        }
        break;
      }
      case FrameType::kProgress: {
        const auto progress = decode_progress(*frame);
        if (progress.job_id == job_id && options.on_progress) {
          options.on_progress(progress);
        }
        break;
      }
      case FrameType::kStopSetSummary: {
        auto summary = decode_job_text(*frame);
        if (summary.job_id == job_id) {
          result.stop_set_summary = std::move(summary.text);
        }
        break;
      }
      case FrameType::kJobStatus: {
        auto status = decode_job_status(*frame);
        if (status.job_id != job_id) break;
        result.outcome = status.outcome;
        result.message = std::move(status.message);
        result.lines = status.lines;
        result.packets = status.packets;
        return result;
      }
      case FrameType::kError:
        throw Error("daemon error: " + decode_text(*frame));
      default:
        break;  // stray replies and handshake frames, unknown kinds
    }
  }
}

std::string Client::server_status() {
  write_frame(fd_,
              {static_cast<std::uint8_t>(FrameType::kStatusRequest), ""});
  return decode_text(await_reply(FrameType::kServerStatus, "daemon error"));
}

std::string Client::metrics() {
  write_frame(fd_,
              {static_cast<std::uint8_t>(FrameType::kMetricsRequest), ""});
  return decode_text(await_reply(FrameType::kMetrics, "daemon error"));
}

Frame Client::await_reply(FrameType reply, const char* refusal) {
  for (;;) {
    auto frame = read_frame(/*wake_fd=*/-1);
    if (frame->type == static_cast<std::uint8_t>(reply)) {
      return *std::move(frame);
    }
    if (frame->type == static_cast<std::uint8_t>(FrameType::kError)) {
      throw Error(std::string(refusal) + ": " + decode_text(*frame));
    }
    // A stale frame of an earlier canceled job, or a kind this build
    // does not know: skip it.
  }
}

}  // namespace mmlpt::daemon
