#include "alias/mbt.h"

#include <algorithm>

namespace mmlpt::alias {

namespace {

std::vector<IpIdSample> merged_samples(
    std::span<const IpIdSeries* const> series) {
  std::vector<IpIdSample> all;
  std::size_t total = 0;
  for (const auto* s : series) total += s->size();
  all.reserve(total);
  for (const auto* s : series) {
    const auto samples = s->samples();
    all.insert(all.end(), samples.begin(), samples.end());
  }
  std::sort(all.begin(), all.end(),
            [](const IpIdSample& a, const IpIdSample& b) {
              return a.time < b.time;
            });
  return all;
}

}  // namespace

bool mbt_compatible(std::span<const IpIdSeries* const> series) {
  if (!monotonic_mod16(merged_samples(series))) return false;
  // Velocity consistency (the MIDAR lineage's velocity modelling): two
  // counters advancing at very different speeds can interleave
  // monotonically by phase luck over a few samples, but their implied
  // velocities betray them. Aliases sample one counter, so estimates
  // agree.
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  for (const auto* s : series) {
    if (s->size() < 3) continue;
    const double v = s->velocity();
    if (v <= 0.0) continue;
    if (first) {
      lo = hi = v;
      first = false;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  constexpr double kMaxVelocityRatio = 4.0;
  return first || hi <= lo * kMaxVelocityRatio;
}

bool mbt_compatible(const IpIdSeries& a, const IpIdSeries& b) {
  const IpIdSeries* pair[] = {&a, &b};
  return mbt_compatible(pair);
}

}  // namespace mmlpt::alias
