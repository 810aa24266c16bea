#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace mmlpt {
namespace {

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);  // sample variance (n-1)
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
}

TEST(RunningStats, CiShrinksWithSamples) {
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 10; ++i) small.add(i % 2);
  for (int i = 0; i < 1000; ++i) large.add(i % 2);
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(EmpiricalCdf, AtAndQuantile) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(EmpiricalCdf, PointsAreCumulative) {
  EmpiricalCdf cdf({3.0, 1.0, 3.0, 2.0});
  const auto pts = cdf.points();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts[0].first, 1.0);
  EXPECT_DOUBLE_EQ(pts[0].second, 0.25);
  EXPECT_DOUBLE_EQ(pts[1].first, 2.0);
  EXPECT_DOUBLE_EQ(pts[1].second, 0.5);
  EXPECT_DOUBLE_EQ(pts[2].first, 3.0);
  EXPECT_DOUBLE_EQ(pts[2].second, 1.0);
}

TEST(EmpiricalCdf, AddKeepsOrderCorrect) {
  EmpiricalCdf cdf;
  cdf.add(5.0);
  cdf.add(1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 1.0);
  cdf.add(0.5);
  EXPECT_DOUBLE_EQ(cdf.min(), 0.5);
  EXPECT_DOUBLE_EQ(cdf.max(), 5.0);
}

TEST(EmpiricalCdf, MeanMatches) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(cdf.mean(), 2.0);
}

TEST(EmpiricalCdf, EmptyThrows) {
  EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_THROW((void)cdf.at(1.0), ContractViolation);
  EXPECT_THROW((void)cdf.quantile(0.5), ContractViolation);
}

TEST(Histogram, PortionsSumToOne) {
  Histogram h;
  h.add(2, 3);
  h.add(5, 1);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.portion(2), 0.75);
  EXPECT_DOUBLE_EQ(h.portion(5), 0.25);
  EXPECT_DOUBLE_EQ(h.portion(99), 0.0);
}

TEST(Histogram2D, JointCounts) {
  Histogram2D h;
  h.add(2, 2, 10);
  h.add(2, 3, 5);
  h.add(4, 2, 5);
  EXPECT_EQ(h.total(), 20u);
  EXPECT_DOUBLE_EQ(h.portion(2, 2), 0.5);
  EXPECT_EQ(h.count(2, 3), 5u);
  EXPECT_EQ(h.count(3, 2), 0u);
}

TEST(Binomial, KnownValues) {
  EXPECT_DOUBLE_EQ(binomial(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(binomial(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(binomial(10, 3), 120.0);
  EXPECT_DOUBLE_EQ(binomial(3, 7), 0.0);
  EXPECT_NEAR(binomial(96, 48), 6.435067013866298e27, 1e13);
}

TEST(Binomial, StaysFiniteWhereTheProductFirstOverflows) {
  // From n ~ 1021 on, C(n, j - 1) * (n - j + 1) exceeds the double range
  // near j = n/2 although C(n, j) does not; C(1029, 514) ~ 1.43e308 is
  // the largest central coefficient a double holds.
  for (const unsigned n : {1021u, 1024u, 1029u}) {
    const unsigned k = n / 2;
    const double reference = std::exp(std::lgamma(n + 1.0) -
                                      std::lgamma(k + 1.0) -
                                      std::lgamma(n - k + 1.0));
    const double value = binomial(n, k);
    ASSERT_TRUE(std::isfinite(value)) << "n=" << n;
    EXPECT_NEAR(value / reference, 1.0, 1e-9) << "n=" << n;
  }
  EXPECT_TRUE(std::isinf(binomial(1030, 515)));
}

}  // namespace
}  // namespace mmlpt
