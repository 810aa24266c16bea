// Statistics utilities: running moments, confidence intervals, empirical
// CDFs, and 1-D / 2-D histograms. These back every figure reproduction.
#ifndef MMLPT_COMMON_STATS_H
#define MMLPT_COMMON_STATS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mmlpt {

/// Welford running mean / variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Half-width of the normal-approximation 95% confidence interval on the
  /// mean (1.96 * stderr); 0 for fewer than two samples.
  [[nodiscard]] double ci95_half_width() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical CDF over a sample of doubles.
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::vector<double> samples);

  void add(double x);

  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }

  /// P[X <= x].
  [[nodiscard]] double at(double x) const;
  /// Smallest sample value v with P[X <= v] >= q, for q in (0, 1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;

  /// (value, cumulative fraction) points at each distinct sample value —
  /// exactly what the paper's CDF figures plot.
  [[nodiscard]] std::vector<std::pair<double, double>> points() const;

 private:
  void sort_if_needed() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Integer-keyed frequency histogram (paper's "portion of diamonds" plots).
class Histogram {
 public:
  void add(std::int64_t key, std::uint64_t weight = 1);

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t count(std::int64_t key) const;
  /// count(key) / total; 0 if empty.
  [[nodiscard]] double portion(std::int64_t key) const;
  [[nodiscard]] const std::map<std::int64_t, std::uint64_t>& bins() const {
    return bins_;
  }

 private:
  std::map<std::int64_t, std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

/// 2-D integer histogram (the paper's joint length x width heatmaps).
class Histogram2D {
 public:
  void add(std::int64_t x, std::int64_t y, std::uint64_t weight = 1);

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t count(std::int64_t x, std::int64_t y) const;
  [[nodiscard]] double portion(std::int64_t x, std::int64_t y) const;
  [[nodiscard]] const std::map<std::pair<std::int64_t, std::int64_t>,
                               std::uint64_t>&
  cells() const {
    return cells_;
  }

 private:
  std::map<std::pair<std::int64_t, std::int64_t>, std::uint64_t> cells_;
  std::uint64_t total_ = 0;
};

/// Binomial coefficient as double, finite wherever C(n, k) fits in one
/// (every k up to n = 1029).
[[nodiscard]] double binomial(unsigned n, unsigned k) noexcept;

/// C(n, j) from `previous` = C(n, j - 1), j >= 1: the step binomial()
/// repeats. It multiplies by n - j + 1, then divides by j; where that
/// product overflows (n >~ 1020 near j = n/2) it divides first, so the
/// coefficient stays finite and every product that fits is unchanged.
[[nodiscard]] double binomial_step(double previous, unsigned n,
                                   unsigned j) noexcept;

}  // namespace mmlpt

#endif  // MMLPT_COMMON_STATS_H
