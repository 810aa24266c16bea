#include "alias/mpls.h"

namespace mmlpt::alias {

void MplsEvidence::add(std::span<const net::MplsLabelEntry> labels) {
  if (labels.empty()) return;
  seen_any_ = true;
  const std::uint32_t top = labels.front().label;
  if (!label_) {
    label_ = top;
  } else if (*label_ != top) {
    unstable_ = true;
  }
}

std::optional<std::uint32_t> MplsEvidence::stable_label() const {
  if (!seen_any_ || unstable_) return std::nullopt;
  return label_;
}

bool mpls_incompatible(const MplsEvidence& a, const MplsEvidence& b) {
  const auto la = a.stable_label();
  const auto lb = b.stable_label();
  return la && lb && *la != *lb;
}

}  // namespace mmlpt::alias
