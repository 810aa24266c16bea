// Blocking framed I/O over a connected stream socket descriptor: the
// POSIX half of the protocol, kept apart from the pure codec so the
// codec stays testable on byte buffers alone.
//
// FrameReader separates "decode what is buffered" (next) from "read once
// from the fd" (fill) so callers can poll(2) on the descriptor together
// with other wakeup fds (the daemon loop's wake pipe, a signal
// self-pipe) and only ever issue a read the poll has said will not block.
#ifndef MMLPT_DAEMON_FRAME_IO_H
#define MMLPT_DAEMON_FRAME_IO_H

#include <cstddef>
#include <optional>
#include <string>

#include "daemon/protocol.h"

namespace mmlpt::daemon {

class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Decode the next frame already buffered; nullopt when more bytes are
  /// needed (call fill). Throws ParseError on a torn or oversized frame.
  [[nodiscard]] std::optional<Frame> next();

  /// One read(2) into the buffer (blocks only as long as the read does;
  /// poll first to avoid blocking at all). Returns false on EOF. Throws
  /// SystemError on a read error.
  [[nodiscard]] bool fill();

  /// Bytes buffered past the last decoded frame — EOF with this nonzero
  /// means the peer died mid-frame (a torn tail).
  [[nodiscard]] bool has_partial_frame() const noexcept {
    return offset_ < buffer_.size();
  }

 private:
  int fd_;
  std::string buffer_;
  std::size_t offset_ = 0;
};

/// Write one frame, whole (EINTR-safe write loop). Throws SystemError on
/// failure (including the peer having closed the connection).
void write_frame(int fd, const Frame& frame);

}  // namespace mmlpt::daemon

#endif  // MMLPT_DAEMON_FRAME_IO_H
