#include "orchestrator/result_sink.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.h"

namespace mmlpt::orchestrator {
namespace {

TEST(ResultSink, WritesInOrderImmediately) {
  std::ostringstream out;
  ResultSink sink(out);
  sink.emit(0, "a");
  EXPECT_EQ(out.str(), "a\n");
  sink.emit(1, "b");
  EXPECT_EQ(out.str(), "a\nb\n");
  EXPECT_EQ(sink.lines_written(), 2u);
}

TEST(ResultSink, RefusesALineOutOfIndexOrder) {
  std::ostringstream out;
  ResultSink sink(out);
  sink.emit(0, "a");
  EXPECT_THROW(sink.emit(2, "c"), ContractViolation);  // a gap
  EXPECT_THROW(sink.emit(0, "a"), ContractViolation);  // a repeat
  EXPECT_EQ(out.str(), "a\n");
  EXPECT_EQ(sink.lines_written(), 1u);
}

/// A temp path that cleans up after itself.
struct TempPath {
  std::string path;
  explicit TempPath(const char* name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempPath() { std::remove(path.c_str()); }
};

TEST(ResultSinkFsync, EveryCommittedLineIsDurableOnDisk) {
  TempPath temp("result_sink_fsync.jsonl");
  FdJsonlFile file(temp.path);
  ASSERT_GE(file.fd(), 0);
  ResultSink sink(file.stream(), ResultSink::Options{true, file.fd()});

  // Each line must be ON DISK (not just in a userspace buffer) the
  // moment emit() returns — read it back through an independent
  // descriptor without any flush of our own.
  sink.emit(0, "{\"index\":0}");
  sink.emit(1, "{\"index\":1}");
  {
    std::ifstream readback(temp.path);
    std::stringstream content;
    content << readback.rdbuf();
    EXPECT_EQ(content.str(), "{\"index\":0}\n{\"index\":1}\n");
  }
  sink.emit(2, "{\"index\":2}");
  std::ifstream readback(temp.path);
  std::stringstream content;
  content << readback.rdbuf();
  EXPECT_EQ(content.str(), "{\"index\":0}\n{\"index\":1}\n{\"index\":2}\n");
  EXPECT_EQ(sink.lines_written(), 3u);
}

TEST(ResultSinkFsync, WriteFailureSurfacesAsSystemError) {
  // /dev/full accepts the open but fails every write with ENOSPC — the
  // canonical long-fleet-run disk-full scenario. The sink must throw, not
  // silently drop committed lines.
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not available";
  }
  FdJsonlFile file("/dev/full");
  ResultSink sink(file.stream(), ResultSink::Options{true, file.fd()});
  EXPECT_THROW(sink.emit(0, "{\"index\":0}"), SystemError);
}

TEST(ResultSinkFsync, FsyncWithoutDescriptorStillFlushes) {
  // fd = -1: flush-only durability (no descriptor available). The lines
  // must still reach the stream immediately.
  std::ostringstream out;
  ResultSink sink(out, ResultSink::Options{true, -1});
  sink.emit(0, "a");
  EXPECT_EQ(out.str(), "a\n");
}

}  // namespace
}  // namespace mmlpt::orchestrator
