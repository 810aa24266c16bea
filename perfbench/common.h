// Shared plumbing of the perfbench program: options, the result record,
// and process-level measurements (CPU time, heap in use).
#ifndef MMLPT_PERFBENCH_COMMON_H
#define MMLPT_PERFBENCH_COMMON_H

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "ledger.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  /// Tiny inputs and one job per phase: the self-test's smoke mode.
  bool smoke = false;
  /// FleetScheduler workers of the batch workloads.
  int jobs = 4;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // observations behind the value
  std::string note;         // e.g. which percentile a tail metric is
};

struct Report {
  std::uint64_t attempted = 0;  // destinations
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void fail(std::uint64_t destinations, const std::string& why) {
    failed += destinations;
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
};

/// User + system CPU time of the whole process.
[[nodiscard]] std::int64_t process_cpu_ns();
/// CPU time of the calling thread. Set-up is timed with it: on a shared
/// VM, wall time of a millisecond-scale step mostly measures how often
/// the host stole the vCPU.
[[nodiscard]] std::int64_t thread_cpu_ns();

/// Samples the live heap (malloc'd bytes in use) every few milliseconds
/// on a background thread, so each job's peak can be read separately. The
/// resident set cannot serve: the allocator keeps freed pages, so it only
/// tracks the largest job so far.
class HeapSampler {
 public:
  HeapSampler();
  ~HeapSampler();
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  /// Start a new window at the current heap size.
  void reset();
  /// Largest heap seen since the last reset, in MiB.
  [[nodiscard]] double peak_mib();

 private:
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  double peak_mib_ = 0;
  std::thread thread_;  // last: started after the fields it uses
};

/// Seed of job/chunk `index` of a run seeded with `seed` (splitmix64).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t index);

/// A file stream buffer that remembers when its first byte arrived: the
/// outside view of "first line" for entry points that write straight to
/// a ResultSink.
class FirstWriteBuf final : public std::filebuf {
 public:
  void arm() { first_write_ns_ = 0; }
  [[nodiscard]] std::int64_t first_write_ns() const { return first_write_ns_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (first_write_ns_ == 0 && n > 0) first_write_ns_ = now_ns();
    return std::filebuf::xsputn(s, n);
  }
  int_type overflow(int_type c) override {
    if (first_write_ns_ == 0) first_write_ns_ = now_ns();
    return std::filebuf::overflow(c);
  }

 private:
  std::int64_t first_write_ns_ = 0;
};

/// Line-by-line comparison; returns the number of lines that differ or
/// are missing on either side.
[[nodiscard]] std::uint64_t count_line_mismatches(const std::string& a,
                                                  const std::string& b);

/// Throws when the run has outlived its wall-clock budget.
void check_deadline(std::int64_t deadline_ns, const char* phase);

void run_ip_survey(const Options& options, Report& report);
void run_router_survey(const Options& options, Report& report);
void run_daemon_requests(const Options& options, Report& report);

}  // namespace perfbench

#endif  // MMLPT_PERFBENCH_COMMON_H
