// The Monotonic Bounds Test (Keys et al., MIDAR): two addresses can be
// aliases only if their interleaved IP-ID samples fit a single monotonic
// counter. A single out-of-sequence identifier separates them (Sec. 4.1).
#ifndef MMLPT_ALIAS_MBT_H
#define MMLPT_ALIAS_MBT_H

#include <span>

#include "alias/ip_id_series.h"

namespace mmlpt::alias {

/// True when the union of all the series' samples, ordered by time, is
/// consistent with one monotonic (mod 2^16) counter.
[[nodiscard]] bool mbt_compatible(
    std::span<const IpIdSeries* const> series);

/// Convenience pair form.
[[nodiscard]] bool mbt_compatible(const IpIdSeries& a, const IpIdSeries& b);

}  // namespace mmlpt::alias

#endif  // MMLPT_ALIAS_MBT_H
