// MPLS Labeling (Vanaubel et al., Sec. 4.1): within a load-balanced MPLS
// tunnel, interfaces of the same router report the same (time-stable)
// label; differing stable labels at the same hop indicate different
// routers. Labels that vary over time are unusable.
#ifndef MMLPT_ALIAS_MPLS_H
#define MMLPT_ALIAS_MPLS_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/icmp.h"

namespace mmlpt::alias {

class MplsEvidence {
 public:
  /// Record the label stack from one reply.
  void add(std::span<const net::MplsLabelEntry> labels);

  [[nodiscard]] bool has_labels() const noexcept { return seen_any_; }

  /// The top label if it has been constant across every labelled reply;
  /// nullopt when never labelled or unstable.
  [[nodiscard]] std::optional<std::uint32_t> stable_label() const;

 private:
  bool seen_any_ = false;
  bool unstable_ = false;
  std::optional<std::uint32_t> label_;
};

/// Different stable labels: very likely different routers.
[[nodiscard]] bool mpls_incompatible(const MplsEvidence& a,
                                     const MplsEvidence& b);

}  // namespace mmlpt::alias

#endif  // MMLPT_ALIAS_MPLS_H
