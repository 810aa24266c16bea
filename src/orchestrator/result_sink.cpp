#include "orchestrator/result_sink.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/assert.h"
#include "common/error.h"
#include "common/json.h"

namespace mmlpt::orchestrator {

void ResultSink::sync_locked() {
  out_->flush();
  if (!out_->good()) {
    throw SystemError("ResultSink: output stream flush failed");
  }
  if (options_.fsync_each_line && options_.fd >= 0 &&
      ::fsync(options_.fd) != 0) {
    throw SystemError(std::string("ResultSink: fsync failed: ") +
                      std::strerror(errno));
  }
}

void ResultSink::commit_locked() {
  // Surface write failures (disk full, closed fd) instead of silently
  // truncating the JSONL — the scheduler propagates this as a run
  // failure.
  if (!out_->good()) {
    throw SystemError("ResultSink: output stream write failed");
  }
  if (options_.fsync_each_line) sync_locked();
}

void ResultSink::emit(std::size_t index, const std::string& line) {
  MutexLock lock(mutex_);
  MMLPT_EXPECTS(index == written_);  // in index order, each exactly once
  *out_ << line << '\n';
  ++written_;
  commit_locked();
}

void ResultSink::flush() {
  MutexLock lock(mutex_);
  sync_locked();
}

std::size_t ResultSink::lines_written() const {
  MutexLock lock(mutex_);
  return written_;
}

std::string destination_line(std::size_t index, const std::string& label,
                             const std::string& extra_fields,
                             const std::string& payload_key,
                             const std::string& payload_json) {
  std::string line = "{\"index\":";
  line += std::to_string(index);
  line += ",\"destination\":\"";
  line += JsonWriter::escape(label);
  line += "\",";
  if (!extra_fields.empty()) {
    line += extra_fields;
    line += ',';
  }
  line += '"';
  line += JsonWriter::escape(payload_key);
  line += "\":";
  line += payload_json;
  line += "}";
  return line;
}

FdJsonlFile::Buf::int_type FdJsonlFile::Buf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  const char byte = traits_type::to_char_type(ch);
  return xsputn(&byte, 1) == 1 ? ch : traits_type::eof();
}

std::streamsize FdJsonlFile::Buf::xsputn(const char* data,
                                         std::streamsize size) {
  std::streamsize written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd_, data + written,
                              static_cast<std::size_t>(size - written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return written;  // short write -> the stream's badbit
    }
    written += n;
  }
  return written;
}

FdJsonlFile::FdJsonlFile(const std::string& path)
    : fd_(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644)),
      buf_(fd_),
      stream_(&buf_) {
  if (fd_ < 0) {
    throw SystemError("cannot open output file: " + path + ": " +
                      std::strerror(errno));
  }
}

FdJsonlFile::~FdJsonlFile() {
  if (fd_ >= 0) ::close(fd_);
}

}  // namespace mmlpt::orchestrator
