#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace mmlpt {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::ci95_half_width() const noexcept {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : samples_(std::move(samples)), sorted_(false) {}

void EmpiricalCdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void EmpiricalCdf::sort_if_needed() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::at(double x) const {
  MMLPT_EXPECTS(!samples_.empty());
  sort_if_needed();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double EmpiricalCdf::quantile(double q) const {
  MMLPT_EXPECTS(!samples_.empty());
  MMLPT_EXPECTS(q > 0.0 && q <= 1.0);
  sort_if_needed();
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size())) - 1.0);
  return samples_[std::min(idx, samples_.size() - 1)];
}

double EmpiricalCdf::min() const {
  MMLPT_EXPECTS(!samples_.empty());
  sort_if_needed();
  return samples_.front();
}

double EmpiricalCdf::max() const {
  MMLPT_EXPECTS(!samples_.empty());
  sort_if_needed();
  return samples_.back();
}

double EmpiricalCdf::mean() const {
  MMLPT_EXPECTS(!samples_.empty());
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> EmpiricalCdf::points() const {
  sort_if_needed();
  std::vector<std::pair<double, double>> pts;
  const auto n = static_cast<double>(samples_.size());
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const bool last_of_value =
        (i + 1 == samples_.size()) || (samples_[i + 1] != samples_[i]);
    if (last_of_value) {
      pts.emplace_back(samples_[i], static_cast<double>(i + 1) / n);
    }
  }
  return pts;
}

void Histogram::add(std::int64_t key, std::uint64_t weight) {
  bins_[key] += weight;
  total_ += weight;
}

std::uint64_t Histogram::count(std::int64_t key) const {
  const auto it = bins_.find(key);
  return it == bins_.end() ? 0 : it->second;
}

double Histogram::portion(std::int64_t key) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(key)) / static_cast<double>(total_);
}

void Histogram2D::add(std::int64_t x, std::int64_t y, std::uint64_t weight) {
  cells_[{x, y}] += weight;
  total_ += weight;
}

std::uint64_t Histogram2D::count(std::int64_t x, std::int64_t y) const {
  const auto it = cells_.find({x, y});
  return it == cells_.end() ? 0 : it->second;
}

double Histogram2D::portion(std::int64_t x, std::int64_t y) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(x, y)) / static_cast<double>(total_);
}

double binomial(unsigned n, unsigned k) noexcept {
  if (k > n) return 0.0;
  if (k > n - k) k = n - k;
  double result = 1.0;
  for (unsigned j = 1; j <= k; ++j) result = binomial_step(result, n, j);
  return result;
}

double binomial_step(double previous, unsigned n, unsigned j) noexcept {
  const auto factor = static_cast<double>(n - (j - 1));
  const double product = previous * factor;
  return std::isinf(product) ? previous / static_cast<double>(j) * factor
                             : product / static_cast<double>(j);
}

}  // namespace mmlpt
