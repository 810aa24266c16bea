#include "core/stopping_points.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/stats.h"

namespace mmlpt::core {
namespace {

// The paper quotes Veitch et al.'s Table 1: n1 = 9, n2 = 17, n4 = 33
// (Sec. 2.1), and the MDA-Lite worked example requires n3 such that
// n4 + n2 + 2*n1 = 68.
TEST(StoppingPoints, VeitchTable1Values) {
  const auto sp = StoppingPoints::veitch_table1();
  EXPECT_EQ(sp.n(1), 9);
  EXPECT_EQ(sp.n(2), 17);
  EXPECT_EQ(sp.n(3), 25);
  EXPECT_EQ(sp.n(4), 33);
}

// The paper's worked example (Sec. 2.3.1): the MDA-Lite spends
// n4 + n2 + 2*n1 = 68 probes on the Fig. 1 diamonds.
TEST(StoppingPoints, MdaLiteWorkedExampleCost) {
  const auto sp = StoppingPoints::veitch_table1();
  EXPECT_EQ(sp.n(4) + sp.n(2) + 2 * sp.n(1), 68);
}

// Sec. 3: with per-vertex bound 0.05, n1 = 6 yields the simplest-diamond
// failure probability (1/2)^5 = 0.03125.
TEST(StoppingPoints, Section3Epsilon005) {
  const auto sp = StoppingPoints::from_epsilon(0.05);
  EXPECT_EQ(sp.n(1), 6);
}

// The intro's motivating example: "to bring the probability of failing to
// discover both interfaces under 1%, a total of eight probes would need
// to be sent" — epsilon 0.01 gives n1 = 8.
TEST(StoppingPoints, IntroEightProbesAtOnePercent) {
  const auto sp = StoppingPoints::from_epsilon(0.01);
  EXPECT_EQ(sp.n(1), 8);
}

TEST(StoppingPoints, MissProbabilityClosedForms) {
  // K = 2: P(n) = 2^(1-n).
  for (int n = 1; n <= 12; ++n) {
    EXPECT_NEAR(StoppingPoints::miss_probability(n, 2), std::pow(2.0, 1 - n),
                1e-12);
  }
  // K = 1: never misses after >= 1 probe.
  EXPECT_DOUBLE_EQ(StoppingPoints::miss_probability(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(StoppingPoints::miss_probability(0, 1), 1.0);
  // n = 0: certain miss.
  EXPECT_DOUBLE_EQ(StoppingPoints::miss_probability(0, 5), 1.0);
}

TEST(StoppingPoints, MissProbabilityMatchesMonteCarloK3) {
  // P(3 coupons not all seen in n draws).
  const double p = StoppingPoints::miss_probability(10, 3);
  // Analytic: 3*(2/3)^10 - 3*(1/3)^10.
  EXPECT_NEAR(p, 3 * std::pow(2.0 / 3.0, 10) - 3 * std::pow(1.0 / 3.0, 10),
              1e-12);
}

TEST(StoppingPoints, MonotoneInK) {
  const auto sp = StoppingPoints::for_global(0.05, 30);
  for (int k = 1; k < 40; ++k) {
    EXPECT_LT(sp.n(k), sp.n(k + 1));
  }
}

TEST(StoppingPoints, TighterEpsilonLargerN) {
  const auto loose = StoppingPoints::from_epsilon(0.05);
  const auto tight = StoppingPoints::from_epsilon(0.001);
  for (int k = 1; k <= 10; ++k) {
    EXPECT_GT(tight.n(k), loose.n(k));
  }
}

TEST(StoppingPoints, GlobalSplitsAcrossBranching) {
  // More branching vertices -> smaller per-vertex epsilon -> larger n_k.
  const auto few = StoppingPoints::for_global(0.05, 5);
  const auto many = StoppingPoints::for_global(0.05, 100);
  EXPECT_GT(many.n(1), few.n(1));
  EXPECT_NEAR(few.epsilon(), 1 - std::pow(0.95, 1.0 / 5), 1e-12);
}

TEST(StoppingPoints, TableLayout) {
  const auto sp = StoppingPoints::veitch_table1();
  const auto table = sp.table(4);
  ASSERT_EQ(table.size(), 5u);
  EXPECT_EQ(table[0], 0);  // unused slot
  EXPECT_EQ(table[1], 9);
  EXPECT_EQ(table[4], 33);
}

TEST(StoppingPoints, LargeKComputable) {
  // Hop widths up to 96 appear in the survey; n_k must be computable
  // far out without pathological run time.
  const auto sp = StoppingPoints::for_global(0.05, 30);
  EXPECT_GT(sp.n(96), sp.n(95));
  EXPECT_LT(sp.n(96), 3000);
}

TEST(StoppingPoints, StoppingGuaranteesBound) {
  // By construction P(miss at n_k with k+1 successors) <= epsilon and
  // P at n_k - 1 > epsilon.
  const auto sp = StoppingPoints::from_epsilon(0.01);
  for (int k = 1; k <= 20; ++k) {
    const int n = sp.n(k);
    EXPECT_LE(StoppingPoints::miss_probability(n, k + 1), 0.01);
    EXPECT_GT(StoppingPoints::miss_probability(n - 1, k + 1), 0.01);
  }
}

TEST(StoppingPoints, RejectsBadParameters) {
  EXPECT_THROW((void)StoppingPoints::from_epsilon(0.0), ContractViolation);
  EXPECT_THROW((void)StoppingPoints::from_epsilon(1.0), ContractViolation);
  EXPECT_THROW((void)StoppingPoints::for_global(0.05, 0), ContractViolation);
  const auto sp = StoppingPoints::from_epsilon(0.05);
  EXPECT_THROW((void)sp.n(0), ContractViolation);
}

// The n_k recurrence computed from nothing, as one tracer alone would:
// n_k is the first n >= n_{k-1} (n >= 1 for k = 1) whose miss
// probability over k + 1 successors is within epsilon.
std::vector<int> scan_from_scratch(double epsilon, int count) {
  std::vector<int> out(static_cast<std::size_t>(count) + 1, 0);
  int n = 1;
  for (int k = 1; k <= count; ++k) {
    while (StoppingPoints::miss_probability(n, k + 1) > epsilon) ++n;
    out[static_cast<std::size_t>(k)] = n;
  }
  return out;
}

TEST(StoppingPoints, InstancesShareOneTableEqualToAScratchScan) {
  const auto first = StoppingPoints::for_global(0.05, 30);
  const auto expected = scan_from_scratch(first.epsilon(), 200);
  for (int k = 1; k <= 200; ++k) {
    ASSERT_EQ(first.n(k), expected[static_cast<std::size_t>(k)]) << k;
  }
  // A second instance reads the table the first one filled.
  const auto second = StoppingPoints::for_global(0.05, 30);
  for (int k = 200; k >= 1; --k) {
    ASSERT_EQ(second.n(k), expected[static_cast<std::size_t>(k)]) << k;
  }
}

TEST(StoppingPoints, PinsValuesPastOneHundredTwentyEight) {
  // The default MDA bound (alpha = 0.05, B = 30), far out.
  const auto sp = StoppingPoints::for_global(0.05, 30);
  EXPECT_EQ(sp.n(128), 1444);
  EXPECT_EQ(sp.n(256), 3058);
}

/// P(n, K) straight from the formula, one binomial(K, j) per term: the
/// reference the table's incremental coefficients must reproduce.
double direct_miss_probability(int n, int K) {
  if (n < K) return 1.0;
  if (K == 1) return 0.0;
  double p = 0.0;
  for (int j = 1; j < K; ++j) {
    const double term =
        binomial(static_cast<unsigned>(K), static_cast<unsigned>(j)) *
        std::pow(1.0 - static_cast<double>(j) / K, n);
    p += (j % 2 == 1) ? term : -term;
  }
  return std::min(1.0, std::max(0.0, p));
}

TEST(StoppingPoints, TableEqualsTheDirectFormula) {
  for (const int branching : {30, 13}) {
    const auto sp = StoppingPoints::for_global(0.05, branching);
    int n = 1;
    for (int k = 1; k <= 256; ++k) {
      while (direct_miss_probability(n, k + 1) > sp.epsilon()) ++n;
      ASSERT_EQ(sp.n(k), n) << "B=" << branching << " k=" << k;
      ASSERT_EQ(StoppingPoints::miss_probability(n, k + 1),
                direct_miss_probability(n, k + 1));
    }
  }
}

/// P(n, K) in log space: an independent reference for large K, where
/// the coefficients near C(K, K/2) reach the top of the double range
/// (C(1024, 512) ~ 4.5e306).
double log_space_miss_probability(int n, int K) {
  double p = 0.0;
  for (int j = 1; j < K; ++j) {
    const double term =
        std::exp(std::lgamma(K + 1.0) - std::lgamma(j + 1.0) -
                 std::lgamma(K - j + 1.0) +
                 n * std::log1p(-static_cast<double>(j) / K));
    p += (j % 2 == 1) ? term : -term;
  }
  return p;
}

TEST(StoppingPoints, LastStoredValueMeetsTheBoundExactly) {
  // n_1023 is the first n whose miss probability for 1024 successors is
  // within epsilon. When the coefficients overflowed, P read 0 there and
  // n_k stopped growing (n_1023 == n_1022 == 13559 < n_1000 + 272).
  const auto sp = StoppingPoints::for_global(0.05, 30);
  const int n = sp.n(1023);
  EXPECT_LE(log_space_miss_probability(n, 1024), sp.epsilon());
  EXPECT_GT(log_space_miss_probability(n - 1, 1024), sp.epsilon());
  EXPECT_GT(n, sp.n(1022));
}

TEST(StoppingPoints, ConcurrentFirstCallsOnFreshInstancesAgree) {
  // An epsilon no other test uses, so all eight threads race to fill an
  // empty table: some extend it, the rest read what they published.
  constexpr double kEpsilon = 0.0123;
  constexpr int kThreads = 8;
  constexpr int kCount = 64;
  const auto expected = scan_from_scratch(kEpsilon, kCount);
  std::vector<std::vector<int>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto sp = StoppingPoints::from_epsilon(kEpsilon);
      auto& out = seen[static_cast<std::size_t>(t)];
      out.assign(static_cast<std::size_t>(kCount) + 1, 0);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Half the threads walk up from k = 1, half jump to the far end.
      for (int i = 1; i <= kCount; ++i) {
        const int k = t % 2 == 0 ? i : kCount + 1 - i;
        out[static_cast<std::size_t>(k)] = sp.n(k);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& out : seen) EXPECT_EQ(out, expected);
}

}  // namespace
}  // namespace mmlpt::core
