#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <ctime>

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace perfbench {

std::int64_t process_cpu_ns() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

double heap_mib() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

}  // namespace

HeapSampler::HeapSampler() {
  peak_mib_ = heap_mib();
  thread_ = std::thread([this] {
    std::unique_lock lock(mutex_);
    while (!wake_.wait_for(lock, std::chrono::milliseconds(5),
                           [this] { return stop_; })) {
      lock.unlock();
      const double now = heap_mib();
      lock.lock();
      peak_mib_ = std::max(peak_mib_, now);
    }
  });
}

HeapSampler::~HeapSampler() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void HeapSampler::reset() {
  const double now = heap_mib();
  std::lock_guard lock(mutex_);
  peak_mib_ = now;
}

double HeapSampler::peak_mib() {
  const double now = heap_mib();
  std::lock_guard lock(mutex_);
  peak_mib_ = std::max(peak_mib_, now);
  return peak_mib_;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % 1'000'000'007ULL + 1;
}

std::uint64_t count_line_mismatches(const std::string& a,
                                    const std::string& b) {
  std::ifstream left(a, std::ios::binary);
  std::ifstream right(b, std::ios::binary);
  if (!left || !right) throw std::runtime_error("cannot reopen output files");
  std::uint64_t mismatches = 0;
  std::string x;
  std::string y;
  while (true) {
    const bool more_left = static_cast<bool>(std::getline(left, x));
    const bool more_right = static_cast<bool>(std::getline(right, y));
    if (!more_left && !more_right) break;
    if (more_left != more_right || x != y) ++mismatches;
  }
  return mismatches;
}

void check_deadline(std::int64_t deadline_ns, const char* phase) {
  if (now_ns() > deadline_ns) {
    throw std::runtime_error(std::string("wall-clock budget exceeded in ") +
                             phase);
  }
}

}  // namespace perfbench
