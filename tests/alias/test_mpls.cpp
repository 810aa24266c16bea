#include "alias/mpls.h"

#include <gtest/gtest.h>

namespace mmlpt::alias {
namespace {

MplsEvidence with_labels(std::initializer_list<std::uint32_t> labels) {
  MplsEvidence e;
  for (const auto l : labels) {
    const net::MplsLabelEntry entry{l, 0, true, 5};
    const net::MplsLabelEntry stack[] = {entry};
    e.add(stack);
  }
  return e;
}

TEST(Mpls, NoLabels) {
  MplsEvidence e;
  EXPECT_FALSE(e.has_labels());
  EXPECT_FALSE(e.stable_label().has_value());
}

TEST(Mpls, StableLabel) {
  const auto e = with_labels({100, 100, 100});
  EXPECT_TRUE(e.has_labels());
  ASSERT_TRUE(e.stable_label().has_value());
  EXPECT_EQ(*e.stable_label(), 100u);
}

TEST(Mpls, UnstableLabelUnusable) {
  const auto e = with_labels({100, 101});
  EXPECT_TRUE(e.has_labels());
  EXPECT_FALSE(e.stable_label().has_value());
}

TEST(Mpls, EmptyStackIgnored) {
  MplsEvidence e;
  e.add({});
  EXPECT_FALSE(e.has_labels());
}

TEST(Mpls, IncompatibleDifferentLabels) {
  EXPECT_TRUE(mpls_incompatible(with_labels({1}), with_labels({2})));
  EXPECT_FALSE(mpls_incompatible(with_labels({1}), with_labels({1})));
}

TEST(Mpls, NoEvidenceNeverIncompatible) {
  EXPECT_FALSE(mpls_incompatible(MplsEvidence{}, with_labels({1})));
  EXPECT_FALSE(mpls_incompatible(MplsEvidence{}, MplsEvidence{}));
  // Unstable labels are unusable.
  EXPECT_FALSE(mpls_incompatible(with_labels({1, 2}), with_labels({3})));
}

TEST(Mpls, OnlyTopLabelConsidered) {
  MplsEvidence e;
  const net::MplsLabelEntry stack[] = {{100, 0, false, 5}, {7, 0, true, 5}};
  e.add(stack);
  const net::MplsLabelEntry stack2[] = {{100, 0, false, 5}, {8, 0, true, 4}};
  e.add(stack2);
  ASSERT_TRUE(e.stable_label().has_value());
  EXPECT_EQ(*e.stable_label(), 100u);
}

}  // namespace
}  // namespace mmlpt::alias
