// IP-ID time series per address, the raw material of MIDAR-style alias
// resolution: classification (constant / echo-of-probe / non-monotonic /
// monotonic) and 16-bit wraparound unwrapping.
#ifndef MMLPT_ALIAS_IP_ID_SERIES_H
#define MMLPT_ALIAS_IP_ID_SERIES_H

#include <cstdint>
#include <span>
#include <vector>

#include "probe/transport_queue.h"

namespace mmlpt::alias {

using probe::Nanos;

struct IpIdSample {
  Nanos time = 0;
  std::uint16_t id = 0;
  std::uint16_t probe_id = 0;  ///< IP-ID of the probe that elicited it
};

enum class SeriesClass : std::uint8_t {
  kTooFew,        ///< not enough samples to say anything
  kConstant,      ///< same value every time (mostly zero in the wild)
  kEchoOfProbe,   ///< copies the probe's IP-ID
  kNonMonotonic,  ///< jumps around: unusable counter
  kMonotonic,     ///< well-behaved counter: MBT applies
};

class IpIdSeries {
 public:
  void add(Nanos time, std::uint16_t id, std::uint16_t probe_id);

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] std::span<const IpIdSample> samples() const noexcept {
    return samples_;
  }

  [[nodiscard]] SeriesClass classify(std::size_t min_samples = 3) const;

  /// Estimated counter velocity in IDs/second over the unwrapped series;
  /// only meaningful for kMonotonic.
  [[nodiscard]] double velocity() const;

 private:
  std::vector<IpIdSample> samples_;  ///< kept in time order
};

/// Forward distance from `a` to `b` on the 16-bit circle.
[[nodiscard]] constexpr std::uint16_t wrap16_delta(std::uint16_t a,
                                                   std::uint16_t b) noexcept {
  return static_cast<std::uint16_t>(b - a);
}

/// True when the time-ordered samples are consistent with a single
/// monotonic 16-bit counter: every consecutive forward delta is below
/// `max_step` (half the circle by default rejects backwards jumps).
[[nodiscard]] bool monotonic_mod16(std::span<const IpIdSample> samples,
                                   std::uint16_t max_step = 0x7FFF);

}  // namespace mmlpt::alias

#endif  // MMLPT_ALIAS_IP_ID_SERIES_H
