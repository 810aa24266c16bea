#include "alias/mbt.h"

#include <gtest/gtest.h>

namespace mmlpt::alias {
namespace {

/// Interleaved samples of one shared counter observed via two addresses.
std::pair<IpIdSeries, IpIdSeries> shared_counter(std::uint16_t start,
                                                 int step, int n) {
  IpIdSeries a;
  IpIdSeries b;
  Nanos t = 1'000'000'000;
  std::uint16_t id = start;
  for (int i = 0; i < n; ++i) {
    ((i % 2 == 0) ? a : b).add(t, id, 0);
    t += 1'000'000;
    id = static_cast<std::uint16_t>(id + step);
  }
  return {std::move(a), std::move(b)};
}

/// Two independent counters at different phases.
std::pair<IpIdSeries, IpIdSeries> independent_counters() {
  IpIdSeries a;
  IpIdSeries b;
  Nanos t = 1'000'000'000;
  std::uint16_t ida = 100;
  std::uint16_t idb = 40000;
  for (int i = 0; i < 20; ++i) {
    a.add(t, ida, 0);
    t += 1'000'000;
    b.add(t, idb, 0);
    t += 1'000'000;
    ida += 3;
    idb += 5;
  }
  return {std::move(a), std::move(b)};
}

TEST(Mbt, SharedCounterCompatible) {
  const auto [a, b] = shared_counter(500, 2, 40);
  EXPECT_TRUE(mbt_compatible(a, b));
}

TEST(Mbt, SharedCounterAcrossWrapCompatible) {
  const auto [a, b] = shared_counter(65500, 3, 40);
  EXPECT_TRUE(mbt_compatible(a, b));
}

TEST(Mbt, IndependentCountersIncompatible) {
  const auto [a, b] = independent_counters();
  EXPECT_FALSE(mbt_compatible(a, b));
}

TEST(Mbt, SingleOutOfSequenceSampleSplits) {
  auto [a, b] = shared_counter(1000, 2, 40);
  // Corrupt one of b's samples backwards.
  IpIdSeries corrupted;
  bool first = true;
  for (const auto& s : b.samples()) {
    corrupted.add(s.time, first ? 900 : s.id, s.probe_id);
    first = false;
  }
  EXPECT_FALSE(mbt_compatible(a, corrupted));
}

}  // namespace
}  // namespace mmlpt::alias
