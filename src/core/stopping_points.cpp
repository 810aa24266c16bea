#include "core/stopping_points.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "common/mutex.h"
#include "common/stats.h"

namespace mmlpt::core {

// n_k for one epsilon, shared by every StoppingPoints with that epsilon.
// values_[1..filled_) is the filled prefix: each value is written before
// filled_ is raised past it (release), and a reader loads filled_
// (acquire) before reading below it, so reads take no lock. Extending
// the prefix takes grow_. Stopping points past kCapacity cost seconds
// each to compute and never occur in practice; they are recomputed from
// the last stored value on every call rather than stored.
class StoppingPoints::Table {
 public:
  explicit Table(double epsilon) : epsilon_(epsilon) {}

  /// The table for `epsilon`, created on first use.
  static Table& for_epsilon(double epsilon);

  int n(int k) {
    const auto index = static_cast<std::size_t>(k);
    if (index < filled_.load(std::memory_order_acquire)) return values_[index];
    if (index < kCapacity) return grow(index);
    int value = grow(kCapacity - 1);
    for (auto j = static_cast<int>(kCapacity); j <= k; ++j) {
      value = next(j, value);
    }
    return value;
  }

 private:
  static constexpr std::size_t kCapacity = 1024;

  /// n_k given n_{k-1}: n_k grows roughly linearly in k, and the scan
  /// starts from the previous value (n_k is non-decreasing in k).
  [[nodiscard]] int next(int k, int previous) const {
    int n = k >= 2 ? previous : 1;
    while (miss_probability(n, k + 1) > epsilon_) ++n;
    return n;
  }

  int grow(std::size_t index) MMLPT_EXCLUDES(grow_) {
    MutexLock lock(grow_);
    // relaxed: filled_ is only stored under grow_, which this thread holds.
    for (auto k = filled_.load(std::memory_order_relaxed); k <= index; ++k) {
      values_[k] = next(static_cast<int>(k), values_[k - 1]);
      filled_.store(k + 1, std::memory_order_release);
    }
    return values_[index];
  }

  const double epsilon_;
  Mutex grow_;
  std::atomic<std::size_t> filled_{1};  ///< values_[0] is unused
  std::array<int, kCapacity> values_{};
};

StoppingPoints::Table& StoppingPoints::Table::for_epsilon(double epsilon) {
  struct Registry {
    Mutex mutex;
    std::map<double, std::unique_ptr<Table>> tables MMLPT_GUARDED_BY(mutex);
  };
  // Leaked so that threads still tracing at exit never see it destroyed.
  static auto* const registry = new Registry;
  MutexLock lock(registry->mutex);
  auto& table = registry->tables[epsilon];
  if (!table) table = std::make_unique<Table>(epsilon);
  return *table;
}

StoppingPoints::StoppingPoints(double epsilon) : epsilon_(epsilon) {
  MMLPT_EXPECTS(epsilon > 0.0 && epsilon < 1.0);
  table_ = &Table::for_epsilon(epsilon);
}

StoppingPoints StoppingPoints::from_epsilon(double epsilon) {
  return StoppingPoints(epsilon);
}

StoppingPoints StoppingPoints::for_global(double alpha, int max_branching) {
  MMLPT_EXPECTS(alpha > 0.0 && alpha < 1.0);
  MMLPT_EXPECTS(max_branching >= 1);
  const double eps =
      1.0 - std::pow(1.0 - alpha, 1.0 / static_cast<double>(max_branching));
  return StoppingPoints(eps);
}

StoppingPoints StoppingPoints::veitch_table1() { return for_global(0.05, 13); }

double StoppingPoints::miss_probability(int n, int successor_count) {
  MMLPT_EXPECTS(n >= 0 && successor_count >= 1);
  const int K = successor_count;
  // Fewer probes than successors cannot cover them all; answering this
  // exactly also sidesteps the alternating sum's cancellation there.
  if (n < K) return 1.0;
  if (K == 1) return 0.0;
  // C(K, j) for j <= K/2 (C(K, K - j) above), each from the last by
  // binomial_step, the step binomial(K, j) repeats: every coefficient,
  // and with it every n_k, is bit-identical to the direct formula.
  std::vector<double> choose(static_cast<std::size_t>(K / 2) + 1, 1.0);
  for (std::size_t j = 1; j < choose.size(); ++j) {
    choose[j] = binomial_step(choose[j - 1], static_cast<unsigned>(K),
                              static_cast<unsigned>(j));
  }
  double p = 0.0;
  for (int j = 1; j < K; ++j) {
    const double term = choose[static_cast<std::size_t>(std::min(j, K - j))] *
                        std::pow(1.0 - static_cast<double>(j) / K, n);
    p += (j % 2 == 1) ? term : -term;
  }
  return std::min(1.0, std::max(0.0, p));
}

int StoppingPoints::n(int k) const {
  MMLPT_EXPECTS(k >= 1);
  return table_->n(k);
}

std::vector<int> StoppingPoints::table(int count) const {
  MMLPT_EXPECTS(count >= 1);
  std::vector<int> out(static_cast<std::size_t>(count) + 1, 0);
  for (int k = 1; k <= count; ++k) out[static_cast<std::size_t>(k)] = n(k);
  return out;
}

}  // namespace mmlpt::core
