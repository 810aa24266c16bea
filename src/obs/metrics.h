// Process metrics for the observability layer: a registry of named
// counters, gauges and fixed-bucket histograms with Prometheus-text
// exposition.
//
// Shape of the contract:
//   * Registration (name + help + labels -> instrument pointer) takes a
//     mutex, happens once per call site, and is idempotent — asking for
//     the same (name, labels) pair again returns the SAME instrument, so
//     components can re-register on reconfiguration without duplicating
//     series.
//   * The fast path — Counter::add, Gauge::set, Histogram::observe — is
//     lock-free: counters stripe their cells across cache lines (one
//     relaxed fetch_add on a thread-local stripe, no sharing between
//     workers), histograms take one relaxed fetch_add per bucket.
//     Incrementing costs what the bespoke `++stats_.field` counters it
//     replaces cost; there is nothing to turn off.
//   * render() snapshots everything as Prometheus text (# HELP / # TYPE,
//     families sorted by name, histogram _bucket/_sum/_count with
//     cumulative le buckets) — the document mmlptd serves for a Metrics
//     frame and the CLIs write for --metrics-out.
//
// Instrument pointers are stable for the registry's lifetime; the
// registry must outlive every component holding one. A component's
// counters live only in the registry its caller hands it; readers (tests
// included) look a series up by name and labels.
#ifndef MMLPT_OBS_METRICS_H
#define MMLPT_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mmlpt::obs {

/// Label set of one series, e.g. {{"transport", "poll"}}. Order is
/// preserved in the exposition; equality is order-sensitive by design
/// (call sites spell their labels one way).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. add() is lock-free and wait-free: each thread owns
/// a stripe (cache-line-sized cell picked by a thread-local index), so
/// concurrent workers never contend on one atomic. value() sums the
/// stripes — a racy-read snapshot, exact once writers quiesce.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    // relaxed: pure statistic, no other data is published through it.
    cells_[stripe()].value.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) {
      // relaxed: racy-read snapshot by contract, exact once writers
      // quiesce.
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  static constexpr std::size_t kStripes = 8;  // power of two

  [[nodiscard]] static std::size_t stripe() noexcept;

  Cell cells_[kStripes];
};

/// Last-value instrument with a monotonic-max variant (burst high-water
/// marks). Stored as int64 — gauges measure levels, not time.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    // relaxed: pure statistic, no other data is published through it.
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    // relaxed: pure statistic, no other data is published through it.
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Raise the gauge to `v` if it is below (lock-free CAS max).
  void record_max(std::int64_t v) noexcept {
    // relaxed: the load and the CAS only need atomicity of this one
    // word; the gauge carries no dependent data (relaxed throughout).
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < v && !value_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    // relaxed: racy-read snapshot by contract.
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: upper bounds are set at registration and
/// never change. observe(v) finds the first bucket with v <= bound
/// (values above every bound land in the implicit +Inf overflow bucket)
/// and bumps it with one relaxed fetch_add; the running sum is kept in
/// nanounits so it is a plain integer add, no atomic-double CAS loop.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts (NOT cumulative); the last entry is +Inf.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept {
    // relaxed: racy-read snapshot by contract.
    return static_cast<double>(
               sum_nanos_.load(std::memory_order_relaxed)) /
           1e9;
  }

 private:
  std::vector<double> bounds_;  ///< ascending upper bounds
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> buckets_;
  std::atomic<std::int64_t> sum_nanos_{0};
};

/// The instrument registry + Prometheus-text renderer (see file
/// comment). Thread-safe throughout; instrument methods are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or find) the counter `name{labels}`. The first call for a
  /// family fixes its help text; later calls may pass anything.
  [[nodiscard]] Counter* counter(const std::string& name,
                                 const std::string& help,
                                 Labels labels = {});
  [[nodiscard]] Gauge* gauge(const std::string& name,
                             const std::string& help, Labels labels = {});
  /// Register (or find) a histogram. `bounds` must be non-empty and
  /// strictly ascending; on a re-lookup the existing bounds win.
  [[nodiscard]] Histogram* histogram(const std::string& name,
                                     const std::string& help,
                                     std::vector<double> bounds,
                                     Labels labels = {});

  /// The full Prometheus text exposition.
  [[nodiscard]] std::string render() const;

  /// Flat (name{labels} -> value) snapshot of every counter and gauge —
  /// the CLIs' JSON summary line is built from this.
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>>
  scalar_snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string help;
    Kind kind = Kind::kCounter;
    std::vector<Series> series;
  };

  [[nodiscard]] Series* find_or_add_locked(const std::string& name,
                                           const std::string& help,
                                           Kind kind, Labels&& labels)
      MMLPT_REQUIRES(mutex_);

  mutable Mutex mutex_;
  /// Sorted exposition order. The map (and the Series vectors inside)
  /// are guarded; the instruments the unique_ptrs point at are
  /// internally thread-safe and handed out as stable raw pointers.
  std::map<std::string, Family> families_ MMLPT_GUARDED_BY(mutex_);
};

/// Canonical `name{a="b",c="d"}` series key (no braces when unlabeled).
[[nodiscard]] std::string series_key(const std::string& name,
                                     const Labels& labels);

}  // namespace mmlpt::obs

#endif  // MMLPT_OBS_METRICS_H
