// CancelToken / CancellableNetwork: the cooperative-cancellation seam
// the daemon's client-disconnect path and the CLIs' SIGINT path both
// ride on. A recording fake inner queue verifies the decorator refuses
// new work once the token fires AND resolves the trace's in-flight
// tickets through the inner cancel() before aborting — an abandoned
// trace must stop spending probes, not drain its deadlines.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "probe/cancel.h"

namespace mmlpt::probe {
namespace {

/// Recording inner queue: holds every submitted slot pending until
/// cancel() resolves it, and logs which tickets the decorator canceled.
class RecordingNetwork final : public TransportQueue {
 public:
  void submit(std::span<const Datagram> window, Ticket ticket,
              const SubmitOptions&) override {
    for (std::size_t slot = 0; slot < window.size(); ++slot) {
      pending_.push_back({ticket, slot});
    }
  }
  using TransportQueue::submit;

  [[nodiscard]] std::vector<Completion> poll_completions() override {
    // Only canceled slots ever resolve — this backend never answers, so
    // a trace abandoned here would otherwise hang on its deadlines.
    std::vector<Completion> out;
    auto it = pending_.begin();
    while (it != pending_.end()) {
      if (it->canceled) {
        out.push_back({it->ticket, it->slot, std::nullopt, true});
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }

  void cancel(Ticket ticket) override {
    canceled_tickets.push_back(ticket);
    for (auto& slot : pending_) {
      if (slot.ticket == ticket) slot.canceled = true;
    }
  }

  [[nodiscard]] std::size_t pending() const override {
    return pending_.size();
  }

  std::vector<Ticket> canceled_tickets;

 private:
  struct PendingSlot {
    Ticket ticket = 0;
    std::size_t slot = 0;
    bool canceled = false;
  };
  std::vector<PendingSlot> pending_;
};

std::vector<Datagram> window_of(std::size_t slots) {
  std::vector<Datagram> window(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    window[i].bytes = {static_cast<std::uint8_t>(i)};
  }
  return window;
}

TEST(CancelToken, IsAOneWayLatch) {
  CancelToken token;
  EXPECT_FALSE(token.requested());
  token.request();
  EXPECT_TRUE(token.requested());
  token.request();  // idempotent
  EXPECT_TRUE(token.requested());
}

TEST(CancellableNetwork, ForwardsUntouchedWhileTokenIsQuiet) {
  RecordingNetwork inner;
  CancelToken token;
  CancellableNetwork network(inner, token);

  const auto window = window_of(3);
  network.submit(window, 7);
  EXPECT_EQ(network.pending(), 3u);

  inner.cancel(7);  // resolve via the backend, not the decorator
  const auto completions = network.poll_completions();
  EXPECT_EQ(completions.size(), 3u);
  EXPECT_EQ(network.pending(), 0u);
  EXPECT_EQ(network.tickets_canceled(), 0u);
}

TEST(CancellableNetwork, RefusesSubmitOnceFired) {
  RecordingNetwork inner;
  CancelToken token;
  CancellableNetwork network(inner, token);
  token.request();

  const auto window = window_of(1);
  EXPECT_THROW(network.submit(window, 1), CanceledError);
  // Nothing reached the backend: nothing to cancel, nothing pending.
  EXPECT_EQ(inner.pending(), 0u);
  EXPECT_TRUE(inner.canceled_tickets.empty());
}

TEST(CancellableNetwork, AbortResolvesInFlightTicketsThroughInnerCancel) {
  RecordingNetwork inner;
  CancelToken token;
  CancellableNetwork network(inner, token);

  const auto first = window_of(4);
  const auto second = window_of(2);
  network.submit(first, 11);
  network.submit(second, 22);
  ASSERT_EQ(inner.pending(), 6u);

  // Fire mid-trace: the next poll must cancel BOTH in-flight tickets
  // through the inner queue, drain the completions, and only then throw.
  token.request();
  EXPECT_THROW((void)network.poll_completions(), CanceledError);
  EXPECT_EQ(network.tickets_canceled(), 2u);
  EXPECT_EQ(inner.canceled_tickets.size(), 2u);
  EXPECT_EQ(inner.pending(), 0u) << "abort must leave the backend clean";
}

TEST(CancellableNetwork, FullyResolvedTicketsAreNotReCanceled) {
  RecordingNetwork inner;
  CancelToken token;
  CancellableNetwork network(inner, token);

  const auto window = window_of(2);
  network.submit(window, 5);
  inner.cancel(5);  // backend resolves the ticket on its own
  EXPECT_EQ(network.poll_completions().size(), 2u);
  inner.canceled_tickets.clear();

  // The decorator saw ticket 5 fully resolve, so the abort path has
  // nothing left to cancel.
  token.request();
  EXPECT_THROW((void)network.poll_completions(), CanceledError);
  EXPECT_EQ(network.tickets_canceled(), 0u);
  EXPECT_TRUE(inner.canceled_tickets.empty());
}

TEST(CancellableNetwork, EveryPollAfterAbortKeepsThrowing) {
  RecordingNetwork inner;
  CancelToken token;
  CancellableNetwork network(inner, token);
  token.request();
  EXPECT_THROW((void)network.poll_completions(), CanceledError);
  EXPECT_THROW((void)network.poll_completions(), CanceledError);
}

}  // namespace
}  // namespace mmlpt::probe
