// Per-trace span/event recording in Chrome trace-event JSON — the
// exportable timeline the rTraceroute line of work argues for. A
// TraceRecorder buffers complete ("ph":"X") and instant ("ph":"i")
// events with microsecond timestamps relative to its own construction;
// write() dumps the {"traceEvents":[...]} document chrome://tracing and
// Perfetto load directly.
//
// Zero-overhead-when-disabled contract: instrumentation points consult
// the process-global recorder() pointer, which is null unless a CLI saw
// --trace-events FILE. Disabled, every span/instant helper is one
// null-check and nothing else — no clock read, no allocation, no lock.
// Enabled, every event appends under a mutex, and the probe path IS
// per-packet hot: the engine records one span per window and one
// rtt_sample instant per reply, so at window 1 that is two events per
// probe. A recorded fleet run at window 1 costs 1.5-2x the CPU of an
// unrecorded one; record short runs, not surveys.
//
// set_recorder() must be called before any instrumented thread starts
// (the CLIs set it during flag parsing) and cleared only after they
// join; the pointer itself is atomic so readers never race the store.
#ifndef MMLPT_OBS_TRACE_EVENTS_H
#define MMLPT_OBS_TRACE_EVENTS_H

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mmlpt::obs {

/// "key":value arguments of a trace event. Numeric only — counts, ids,
/// microseconds; trace viewers aggregate numbers, not strings. Keys must
/// be string literals (the recorder stores the pointers).
using TraceArgs = std::vector<std::pair<const char*, double>>;

class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  TraceRecorder() : base_(Clock::now()) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// A complete event: [begin, end) on the calling thread's timeline.
  /// `name` and `category` must be string literals.
  void complete(const char* name, const char* category,
                Clock::time_point begin, Clock::time_point end,
                TraceArgs args = {});

  /// A zero-duration instant event stamped now.
  void instant(const char* name, const char* category, TraceArgs args = {});

  [[nodiscard]] std::size_t event_count() const;

  /// The {"traceEvents":[...]} document.
  [[nodiscard]] std::string json() const;

  /// Write json() to `path`; throws on I/O failure.
  void write(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    const char* category;
    char phase;          ///< 'X' complete, 'i' instant
    std::int64_t ts_us;  ///< relative to base_
    std::int64_t dur_us; ///< complete events only
    std::uint32_t tid;
    TraceArgs args;
  };

  void append(Event event);
  [[nodiscard]] std::int64_t since_base_us(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - base_)
        .count();
  }

  Clock::time_point base_;
  mutable Mutex mutex_;
  std::vector<Event> events_ MMLPT_GUARDED_BY(mutex_);
};

/// The process-global recorder; null = tracing disabled (the common
/// case — instrumentation compiles down to this null-check).
[[nodiscard]] TraceRecorder* recorder() noexcept;
void set_recorder(TraceRecorder* recorder) noexcept;

/// RAII complete-event span over the global recorder. Costs one branch
/// when tracing is off; the clock is only read when it is on.
class Span {
 public:
  explicit Span(const char* name, const char* category = "mmlpt")
      : recorder_(recorder()), name_(name), category_(category) {
    if (recorder_ != nullptr) begin_ = TraceRecorder::Clock::now();
  }
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach an argument reported when the span closes (e.g. a count
  /// known only at the end).
  void arg(const char* key, double value) {
    if (recorder_ != nullptr) args_.emplace_back(key, value);
  }

  /// Close the span early (idempotent; the destructor is then a no-op).
  void finish() {
    if (recorder_ == nullptr) return;
    recorder_->complete(name_, category_, begin_,
                        TraceRecorder::Clock::now(), std::move(args_));
    recorder_ = nullptr;
  }

 private:
  TraceRecorder* recorder_;
  const char* name_;
  const char* category_;
  TraceRecorder::Clock::time_point begin_{};
  TraceArgs args_;
};

/// Instant event on the global recorder; one null-check when disabled.
inline void instant(const char* name, const char* category = "mmlpt",
                    std::initializer_list<std::pair<const char*, double>>
                        args = {}) {
  if (TraceRecorder* r = recorder(); r != nullptr) {
    r->instant(name, category, TraceArgs(args.begin(), args.end()));
  }
}

}  // namespace mmlpt::obs

#endif  // MMLPT_OBS_TRACE_EVENTS_H
