// The MDA's stopping points n_k (Veitch et al., Infocom 2009): after k
// successors of a vertex have been found, probing stops once n_k probes
// have been sent to that vertex without revealing a (k+1)-th successor.
//
// n_k is the smallest n such that, were there actually k+1 successors
// under uniform-at-random balancing, the probability that n probes leave
// at least one of them unseen is at most the per-vertex bound epsilon:
//
//   P(n, K) = sum_{j=1..K-1} (-1)^(j+1) C(K,j) (1 - j/K)^n   (K = k+1)
//
// epsilon is derived from the tool's global failure bound alpha and the
// assumed maximum number of branching vertices B: eps = 1-(1-alpha)^(1/B).
#ifndef MMLPT_CORE_STOPPING_POINTS_H
#define MMLPT_CORE_STOPPING_POINTS_H

#include <span>
#include <vector>

namespace mmlpt::core {

class StoppingPoints {
 public:
  /// Directly specify the per-vertex failure bound.
  [[nodiscard]] static StoppingPoints from_epsilon(double epsilon);

  /// Global failure bound split across at most `max_branching` branching
  /// vertices. The MDA's default is alpha = 0.05, B = 30.
  [[nodiscard]] static StoppingPoints for_global(double alpha,
                                                 int max_branching);

  /// The n_k values the paper quotes from Veitch et al.'s Table 1
  /// (n_1 = 9, n_2 = 17, n_3 = 25, n_4 = 33); equivalent to
  /// for_global(0.05, 13).
  [[nodiscard]] static StoppingPoints veitch_table1();

  /// Stopping point once k successors are known (k >= 1); k may be
  /// arbitrarily large. Every instance with the same epsilon reads one
  /// process-wide table, which the first call past its filled prefix
  /// extends; calls may come from any thread.
  [[nodiscard]] int n(int k) const;

  /// The first `count` stopping points as a dense vector indexed by k
  /// (index 0 unused, set to 0) — the layout fakeroute's failure analysis
  /// consumes.
  [[nodiscard]] std::vector<int> table(int count) const;

  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }

  /// P(n, K): probability that n uniform probes over K successors leave
  /// at least one unseen, by the inclusion-exclusion sum; used by the n_k
  /// scan and exposed for tests. n < K returns exactly 1. The sum is
  /// accurate for n at or above the previous stopping point n_{K-2},
  /// which is where the scan evaluates it. Closer to K its alternating
  /// terms cancel in double precision: miss_probability(200, 200)
  /// returns 0, although 1 - 200!/200^200 is about 1.
  [[nodiscard]] static double miss_probability(int n, int successor_count);

 private:
  class Table;  ///< the shared n_k values for one epsilon

  explicit StoppingPoints(double epsilon);

  double epsilon_;
  Table* table_;  ///< process-wide, never freed
};

}  // namespace mmlpt::core

#endif  // MMLPT_CORE_STOPPING_POINTS_H
