// The TransportQueue contract: submit/poll semantics of the
// SimulatedNetwork queue and of the engine on top, and the
// deadline-arithmetic helper the raw-socket receive loop leans on.
#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <span>
#include <vector>

#include "core/validation.h"
#include "fakeroute/simulator.h"
#include "net/packet.h"
#include "probe/engine.h"
#include "probe/raw_socket_network.h"
#include "probe/simulated_network.h"
#include "support/silent_queue.h"
#include "topology/reference.h"

namespace mmlpt::probe {
namespace {

TEST(TransportQueue, PollWithNothingPendingReturnsEmpty) {
  SilentQueue network;
  EXPECT_TRUE(network.poll_completions().empty());
  EXPECT_EQ(network.pending(), 0u);
}

/// Build a Paris probe towards the simplest-diamond world.
std::vector<std::uint8_t> udp_probe(const topo::GroundTruth& truth,
                                    std::uint16_t src_port, std::uint8_t ttl,
                                    std::uint16_t ip_id) {
  net::ProbeSpec spec;
  spec.src = truth.source;
  spec.dst = truth.destination;
  spec.src_port = src_port;
  spec.dst_port = 33434;
  spec.ttl = ttl;
  spec.ip_id = ip_id;
  return net::build_udp_probe(spec);
}

TEST(TransportQueue, SimulatedQueueMatchesSerialTransacts) {
  // Twin simulators, same seed: one six-slot window must hand the
  // simulator the same datagrams in the same order as six one-datagram
  // submit/poll rounds, so the completions must be byte-identical.
  const auto truth = core::plain_ground_truth(topo::simplest_diamond());
  fakeroute::Simulator serial_sim(truth, {}, 11);
  fakeroute::Simulator queued_sim(truth, {}, 11);
  SimulatedNetwork serial(serial_sim);
  SimulatedNetwork queued(queued_sim);

  std::vector<Datagram> window;
  for (std::uint16_t f = 0; f < 6; ++f) {
    window.push_back(
        Datagram{udp_probe(truth, static_cast<std::uint16_t>(33434 + f), 2,
                           static_cast<std::uint16_t>(f + 1)),
                 1'000'000ULL * (f + 1)});
  }

  queued.submit(window, /*ticket=*/3);
  EXPECT_EQ(queued.pending(), window.size());
  const auto completions = queued.poll_completions();
  EXPECT_EQ(queued.pending(), 0u);
  ASSERT_EQ(completions.size(), window.size());
  for (std::size_t i = 0; i < window.size(); ++i) {
    serial.submit(std::span(window).subspan(i, 1), /*ticket=*/i);
    const auto round = serial.poll_completions();
    ASSERT_EQ(round.size(), 1u);
    const auto& reply = round[0].reply;
    EXPECT_EQ(completions[i].ticket, 3u);
    EXPECT_EQ(completions[i].slot, i);
    ASSERT_EQ(completions[i].reply.has_value(), reply.has_value());
    if (reply) {
      EXPECT_EQ(completions[i].reply->datagram, reply->datagram);
      EXPECT_EQ(completions[i].reply->rtt, reply->rtt);
    }
  }
}

TEST(TransportQueue, EngineProbeBatchRidesTheQueue) {
  // The engine submits one ticket per retry round and drains it; on a
  // lossless world a window resolves in one round with full accounting.
  const auto truth = core::plain_ground_truth(topo::simplest_diamond());
  fakeroute::Simulator simulator(truth, {}, 1);
  SimulatedNetwork network(simulator);
  ProbeEngine::Config config;
  config.source = truth.source;
  config.destination = truth.destination;
  ProbeEngine engine(network, config);

  std::vector<ProbeEngine::ProbeRequest> requests;
  for (FlowId f = 0; f < 8; ++f) requests.push_back({f, 1});
  const auto results = engine.probe_batch(requests);
  ASSERT_EQ(results.size(), 8u);
  for (const auto& result : results) EXPECT_TRUE(result.answered);
  EXPECT_EQ(network.pending(), 0u);  // the engine drains every ticket
}

TEST(PollBudget, RoundsRemainingTimeUpToWholeMilliseconds) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now{};
  EXPECT_EQ(poll_budget_ms(now, now + std::chrono::milliseconds(5)), 5);
  // 1.5 ms remaining: waiting only 1 ms would expire the deadline early.
  EXPECT_EQ(poll_budget_ms(now, now + std::chrono::microseconds(1500)), 2);
  // A sub-millisecond remainder still waits instead of spinning at 0.
  EXPECT_EQ(poll_budget_ms(now, now + std::chrono::microseconds(200)), 1);
  EXPECT_EQ(poll_budget_ms(now, now + std::chrono::nanoseconds(1)), 1);
}

TEST(PollBudget, ExpiredDeadlinesPollZero) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now{std::chrono::hours(1)};
  EXPECT_EQ(poll_budget_ms(now, now), 0);
  EXPECT_EQ(poll_budget_ms(now, now - std::chrono::milliseconds(3)), 0);
}

TEST(PollBudget, ClampsHugeDeadlinesToIntRange) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now{};
  EXPECT_EQ(poll_budget_ms(now, now + std::chrono::hours(24 * 365)),
            INT_MAX);
}

}  // namespace
}  // namespace mmlpt::probe
