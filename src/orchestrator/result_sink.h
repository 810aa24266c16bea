// Thread-safe streaming JSONL sink. Lines arrive in index order from
// FleetScheduler's ordered, serialized on_result hook (every producer
// emits from there), so the output file is byte-identical across runs
// and thread counts; the sink writes each line as it arrives and checks
// that order rather than restoring it.
#ifndef MMLPT_ORCHESTRATOR_RESULT_SINK_H
#define MMLPT_ORCHESTRATOR_RESULT_SINK_H

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mmlpt::orchestrator {

class ResultSink {
 public:
  struct Options {
    /// Durable streaming: flush the stream AND fsync(2) `fd` after every
    /// emit() that wrote lines, so each committed destination line
    /// survives a crash of the surveying host. `fd` must be the
    /// descriptor behind the stream (see FdJsonlFile); -1 with
    /// fsync_each_line set means flush-only durability (no descriptor
    /// available).
    bool fsync_each_line = false;
    int fd = -1;
  };

  /// The stream must outlive the sink. One sink per output file.
  explicit ResultSink(std::ostream& out) : out_(&out), options_{false, -1} {}
  ResultSink(std::ostream& out, Options options)
      : out_(&out), options_(options) {}
  ~ResultSink() {
    // Best-effort flush; a failed stream already threw from emit()/an
    // explicit flush(), and destructors must not throw.
    try {
      flush();
    } catch (...) {
    }
  }

  ResultSink(const ResultSink&) = delete;
  ResultSink& operator=(const ResultSink&) = delete;

  /// Write line `index` (no trailing newline; the sink appends one).
  /// Requires `index == lines_written()`: lines come in index order,
  /// each exactly once.
  void emit(std::size_t index, const std::string& line);

  /// Flush the underlying stream. Throws SystemError when the stream has
  /// failed (as does emit()).
  void flush();

  [[nodiscard]] std::size_t lines_written() const;

 private:
  /// Flush the stream and, in fsync mode, fsync the descriptor; throws
  /// SystemError on failure. Lock held.
  void sync_locked() MMLPT_REQUIRES(mutex_);
  /// Post-write durability step: surface write failures, then sync in
  /// fsync mode. Lock held; only called after lines hit the stream.
  void commit_locked() MMLPT_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::ostream* out_ MMLPT_PT_GUARDED_BY(mutex_);
  Options options_;
  std::size_t written_ MMLPT_GUARDED_BY(mutex_) = 0;
};

/// A JSONL output file as a std::ostream over a raw POSIX descriptor —
/// what ResultSink's fsync durability needs (iostreams do not expose
/// their fd). Opens O_WRONLY|O_CREAT|O_TRUNC; writes are unbuffered at
/// the streambuf level (ResultSink writes whole lines, and durability
/// wants them on the way to the kernel immediately). Construction
/// throws SystemError when the file cannot be opened.
class FdJsonlFile {
 public:
  explicit FdJsonlFile(const std::string& path);
  ~FdJsonlFile();

  FdJsonlFile(const FdJsonlFile&) = delete;
  FdJsonlFile& operator=(const FdJsonlFile&) = delete;

  [[nodiscard]] std::ostream& stream() noexcept { return stream_; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  class Buf final : public std::streambuf {
   public:
    explicit Buf(int fd) : fd_(fd) {}

   protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char* data, std::streamsize size) override;

   private:
    int fd_;
  };

  int fd_ = -1;
  Buf buf_;
  std::ostream stream_;
};

/// Build the standard per-destination JSONL line:
///   {"index":N,"destination":"<label>",<extra_fields>,"<key>":<payload>}
/// The label is JSON-escaped (it may be an arbitrary user-supplied
/// string); `payload_json` is spliced verbatim and must already be valid
/// JSON. `extra_fields` must be valid `"key":value` JSON member text
/// without surrounding braces; empty means no extra members, so disabled
/// features cost nothing. Every fleet JSONL producer goes through here so
/// the wire format and its escaping live in one place.
[[nodiscard]] std::string destination_line(std::size_t index,
                                           const std::string& label,
                                           const std::string& extra_fields,
                                           const std::string& payload_key,
                                           const std::string& payload_json);

}  // namespace mmlpt::orchestrator

#endif  // MMLPT_ORCHESTRATOR_RESULT_SINK_H
