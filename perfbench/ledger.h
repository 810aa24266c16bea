// In-memory span ledger for the benchmark's traced passes.
//
// Coarse spans (one per route generation, trace, fleet task, ordered
// callback, JSON render, sink emit) are kept individually and written out
// when the benchmark ends. Hot leaf calls — every transport submit/poll
// and every stop-set query — are far too many to keep one by one, so each
// thread sums their time and count, and charges the time to the innermost
// open span as covered child time.
//
// A span's self time is its duration minus the part of its interval that
// its child spans (and charged leaf time) cover.
#ifndef MMLPT_PERFBENCH_LEDGER_H
#define MMLPT_PERFBENCH_LEDGER_H

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint8_t {
  kWorld,       // topo::SurveyWorld construction (diamond templates)
  kRouteGen,    // topo::SurveyWorld::next_route
  kTask,        // one FleetScheduler task (whole per-destination stack)
  kTrace,       // MdaLiteTracer::run / MultilevelTracer::run
  kLiteRerun,   // MDA-Lite alone over the same route and seed
  kOnResult,    // the ordered on_result callback
  kJson,        // core::trace_to_json / multilevel_to_json
  kLine,        // orchestrator::destination_line
  kEmit,        // orchestrator::ResultSink::emit
  kCheck,       // the benchmark's own oracle work (ground-truth compare)
};
[[nodiscard]] const char* span_name(SpanKind kind);

enum class LeafKind : std::uint8_t {
  kSubmit,        // TransportQueue::submit (Fakeroute runs here); items = datagrams
  kPoll,          // TransportQueue::poll_completions
  kStopContains,  // StopSet::contains; items = hits
  kStopQuery,     // StopSet::destination / midpoint_ttl
  kStopRecord,    // StopSet::record / record_destination
};
inline constexpr std::size_t kLeafKinds = 5;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: no parent
  std::uint64_t request = 0; // destination or job the span belongs to
  SpanKind kind = SpanKind::kTask;
  std::uint32_t thread = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t leaf_ns = 0;  // leaf time charged while innermost
};

struct LeafTotals {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;  // datagrams for transport, hits for contains
};

/// Span duration minus the union of the child intervals clipped to it.
/// Children may overlap each other (concurrent children on other threads
/// do); overlapping parts count once.
[[nodiscard]] std::int64_t self_time(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> children);

class Ledger {
 public:
  Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// RAII span on the calling thread; a null ledger makes it a no-op.
  class Scope {
   public:
    Scope(Ledger* ledger, SpanKind kind, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    friend class Ledger;
    Ledger* ledger_;
    Scope* outer_ = nullptr;
    Span span_;
  };

  /// Add one leaf call of `ns` to this thread's totals and charge it to
  /// the innermost open span.
  void leaf(LeafKind kind, std::int64_t ns, std::uint64_t items);

  /// Every span recorded so far (call once the traced pass has joined).
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::array<LeafTotals, kLeafKinds> leaf_totals() const;

  /// One JSON object per span, for offline inspection.
  void write_spans(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::array<LeafTotals, kLeafKinds> leaves{};
  };
  ThreadBuffer& buffer();

  std::uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// The benchmark's percentile rule: the highest of p99, p95, p90, p75 and
/// p50 that leaves at least ten samples beyond it (nearest rank), reported
/// with the sample count. With fewer than 20 samples no percentile
/// qualifies and the median is reported as p50. The ladder stops at p99:
/// a p99.9 of a ten-second run rests on the couple of dozen slowest jobs,
/// which a single scheduler hiccup of the host decides.
struct Percentile {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Percentile tail_percentile(std::vector<double> samples);
[[nodiscard]] double median(std::vector<double> samples);

}  // namespace perfbench

#endif  // MMLPT_PERFBENCH_LEDGER_H
