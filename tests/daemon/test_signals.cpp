// ShutdownSignal: the self-pipe signal seam mmlptd, mmlpt_fleet and
// mmlpt_survey drain through. The latch and the pipe are process-global
// by design, so the death test installs the handlers only inside its
// forked child: gtest runs *DeathTest suites first, and a pipe created
// in the parent would be shared with the child, whose SIGINT would leave
// it readable for the first-delivery test that follows.
#include <gtest/gtest.h>

#include <csignal>

#include <poll.h>

#include "daemon/signals.h"
#include "probe/cancel.h"

namespace mmlpt::daemon {
namespace {

bool readable_now(int fd) {
  struct pollfd p {};
  p.fd = fd;
  p.events = POLLIN;
  return ::poll(&p, 1, 0) == 1 && (p.revents & POLLIN) != 0;
}

TEST(ShutdownSignal, InstallIsIdempotent) {
  auto& first = ShutdownSignal::install();
  auto& second = ShutdownSignal::install();
  EXPECT_EQ(&first, &second);
  EXPECT_GE(first.fd(), 0);
}

TEST(ShutdownSignal, FirstDeliveryLatchesFiresTokenAndWakesThePipe) {
  auto& shutdown = ShutdownSignal::install();
  probe::CancelToken token;
  shutdown.link(&token);

  EXPECT_FALSE(shutdown.requested());
  EXPECT_EQ(shutdown.exit_code(), 0);
  EXPECT_FALSE(readable_now(shutdown.fd()));

  ASSERT_EQ(std::raise(SIGTERM), 0);

  EXPECT_TRUE(shutdown.requested());
  EXPECT_EQ(shutdown.signal(), SIGTERM);
  EXPECT_EQ(shutdown.exit_code(), 128 + SIGTERM);
  EXPECT_TRUE(token.requested()) << "linked token must fire in the handler";
  // Level-triggered: the pipe stays readable forever, it is never drained.
  EXPECT_TRUE(readable_now(shutdown.fd()));
  EXPECT_TRUE(readable_now(shutdown.fd()));

  shutdown.link(nullptr);
}

TEST(ShutdownSignalDeathTest, SecondDeliveryExitsImmediately) {
  // Two raises make the test self-contained: the first latches (or is
  // already latched, when another test ran first in this process), the
  // second must _exit(128+sig) — an insistent ^C^C always wins over a
  // wedged drain.
  EXPECT_EXIT(
      {
        (void)ShutdownSignal::install();
        (void)std::raise(SIGINT);
        (void)std::raise(SIGINT);
      },
      ::testing::ExitedWithCode(128 + SIGINT), "");
}

}  // namespace
}  // namespace mmlpt::daemon
