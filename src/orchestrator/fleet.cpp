#include "orchestrator/fleet.h"

#include "common/assert.h"

namespace mmlpt::orchestrator {

FleetScheduler::FleetScheduler(FleetConfig config)
    : config_(config) {
  MMLPT_EXPECTS(config_.jobs >= 1);
  if (config_.pps > 0.0) {
    limiter_ = std::make_unique<RateLimiter>(config_.pps, config_.burst);
    if (config_.metrics != nullptr) {
      limiter_->instrument(*config_.metrics, "fleet");
    }
  }
}

}  // namespace mmlpt::orchestrator
