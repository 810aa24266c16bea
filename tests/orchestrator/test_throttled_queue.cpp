// Decorator composition on the completion-queue seam: ThrottledNetwork
// over a TransportQueue must charge EXACTLY one limiter token per
// submitted probe, no matter how submissions and completions interleave
// across tickets.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "orchestrator/rate_limiter.h"
#include "orchestrator/throttled_network.h"
#include "support/silent_queue.h"

namespace mmlpt::orchestrator {
namespace {

TEST(ThrottledQueue, PropertyOneTokenPerSubmittedProbe) {
  // 64 random schedules: interleave submits of random windows (several
  // in-flight tickets at once) with polls that surface completions in
  // bursts. The token count must always equal the probes submitted —
  // never re-charged at poll, never skipped under interleaving.
  Rng rng(20260729);
  for (int schedule = 0; schedule < 64; ++schedule) {
    probe::SilentQueue inner;
    RateLimiter limiter(1e9, 1 << 20);
    ThrottledNetwork throttled(inner, limiter);

    std::uint64_t submitted = 0;
    std::size_t unresolved = 0;
    probe::Ticket next_ticket = 1;
    const int steps = 3 + static_cast<int>(rng.index(20));
    for (int step = 0; step < steps; ++step) {
      if (rng.index(3) != 0) {  // submit, ~2/3 of steps
        const auto size = 1 + rng.index(8);
        const std::vector<probe::Datagram> window(size);
        throttled.submit(window, next_ticket++);
        submitted += size;
        unresolved += size;
        EXPECT_EQ(limiter.granted(), submitted);  // charged at submit
      } else if (unresolved > 0) {  // poll, surfacing a completion burst
        const auto completions = throttled.poll_completions();
        EXPECT_FALSE(completions.empty());
        unresolved -= completions.size();
      }
    }
    while (unresolved > 0) {
      unresolved -= throttled.poll_completions().size();
    }
    EXPECT_EQ(limiter.granted(), submitted);
    EXPECT_EQ(inner.sent.size(), submitted);
    EXPECT_EQ(throttled.pending(), 0u);
  }
}

TEST(ThrottledQueue, EmptyWindowCostsNothing) {
  probe::SilentQueue inner;
  RateLimiter limiter(1e9, 16);
  ThrottledNetwork throttled(inner, limiter);
  const std::vector<probe::Datagram> empty;
  throttled.submit(empty, 1);
  EXPECT_EQ(limiter.granted(), 0u);
}

}  // namespace
}  // namespace mmlpt::orchestrator
