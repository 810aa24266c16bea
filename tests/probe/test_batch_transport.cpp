// The batched probing contract: ProbeEngine::probe_batch over the
// SimulatedNetwork queue, its retry rounds, and the ThrottledNetwork
// decorator.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "core/validation.h"
#include "fakeroute/simulator.h"
#include "orchestrator/rate_limiter.h"
#include "orchestrator/throttled_network.h"
#include "probe/engine.h"
#include "probe/simulated_network.h"
#include "support/silent_queue.h"
#include "topology/reference.h"

namespace mmlpt::probe {
namespace {

struct Rig {
  topo::GroundTruth truth;
  fakeroute::Simulator simulator;
  SimulatedNetwork network;
  ProbeEngine engine;

  explicit Rig(topo::MultipathGraph graph, fakeroute::SimConfig sim = {},
               std::uint64_t seed = 1)
      : truth(core::plain_ground_truth(std::move(graph))),
        simulator(truth, sim, seed),
        network(simulator),
        engine(network, make_config(truth)) {}

  static ProbeEngine::Config make_config(const topo::GroundTruth& t) {
    ProbeEngine::Config c;
    c.source = t.source;
    c.destination = t.destination;
    return c;
  }
};

TEST(TransactBatch, SimulatedBatchMatchesSerialTransacts) {
  // Same topology, same seed: a batched window and a serial loop must
  // produce identical replies datagram-for-datagram.
  Rig serial(topo::simplest_diamond());
  Rig batched(topo::simplest_diamond());

  // Craft the windows through engines so the datagrams are identical.
  std::vector<ProbeEngine::ProbeRequest> requests;
  for (FlowId f = 0; f < 8; ++f) requests.push_back({f, 1});

  std::vector<TraceProbeResult> one_by_one;
  one_by_one.reserve(requests.size());
  for (const auto& r : requests) {
    one_by_one.push_back(serial.engine.probe(r.flow, r.ttl));
  }
  const auto window = batched.engine.probe_batch(requests);

  ASSERT_EQ(window.size(), one_by_one.size());
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].answered, one_by_one[i].answered);
    EXPECT_EQ(window[i].responder, one_by_one[i].responder);
    EXPECT_EQ(window[i].from_destination, one_by_one[i].from_destination);
  }
  EXPECT_EQ(batched.engine.packets_sent(), serial.engine.packets_sent());
}

TEST(ProbeBatch, AnswersWholeWindowAndAccountsPackets) {
  Rig rig(topo::simplest_diamond());
  std::vector<ProbeEngine::ProbeRequest> requests;
  for (FlowId f = 0; f < 12; ++f) requests.push_back({f, 1});
  const auto results = rig.engine.probe_batch(requests);
  ASSERT_EQ(results.size(), 12u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.answered);
    EXPECT_FALSE(r.from_destination);
    EXPECT_GT(r.recv_time, r.send_time);
  }
  EXPECT_EQ(rig.engine.packets_sent(), 12u);
  EXPECT_EQ(rig.engine.trace_probes_sent(), 12u);
}

TEST(ProbeBatch, ReachesDestinationAtHighTtl) {
  Rig rig(topo::simplest_diamond());
  const auto results =
      rig.engine.probe_batch(std::vector<ProbeEngine::ProbeRequest>{
          {0, 1}, {0, 10}});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].from_destination);
  EXPECT_TRUE(results[1].from_destination);
  EXPECT_EQ(results[1].responder, rig.truth.destination);
}

TEST(ProbeBatch, RetriesOnlyUnansweredSlots) {
  fakeroute::SimConfig sim;
  sim.loss_prob = 1.0;  // nothing ever answers
  Rig rig(topo::simplest_diamond(), sim);
  const auto results = rig.engine.probe_batch(
      std::vector<ProbeEngine::ProbeRequest>{{0, 1}, {1, 1}, {2, 1}});
  for (const auto& r : results) EXPECT_FALSE(r.answered);
  // 3 probes x (1 initial + 2 retries).
  EXPECT_EQ(rig.engine.packets_sent(), 9u);
}

TEST(ProbeBatch, RetryRoundsRecoverFromLoss) {
  fakeroute::SimConfig sim;
  sim.loss_prob = 0.4;
  Rig rig(topo::simplest_diamond(), sim, 5);
  std::vector<ProbeEngine::ProbeRequest> requests;
  for (FlowId f = 0; f < 100; ++f) requests.push_back({f, 1});
  const auto results = rig.engine.probe_batch(requests);
  int answered = 0;
  for (const auto& r : results) {
    if (r.answered) ++answered;
  }
  // P(3 losses in a row) = 0.064: nearly everything answered, and the
  // retry rounds sent strictly fewer datagrams than 3x the window.
  EXPECT_GT(answered, 85);
  EXPECT_LT(rig.engine.packets_sent(), 300u);
  EXPECT_GT(rig.engine.packets_sent(), 100u);
}

TEST(ProbeBatch, EmptyWindowIsANoOp) {
  Rig rig(topo::simplest_diamond());
  const auto t0 = rig.engine.now();
  const auto results =
      rig.engine.probe_batch(std::vector<ProbeEngine::ProbeRequest>{});
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(rig.engine.packets_sent(), 0u);
  EXPECT_EQ(rig.engine.now(), t0);  // no datagram, no virtual time
}

TEST(ProbeBatch, DuplicateRequestsGetIndependentProbes) {
  Rig rig(topo::simplest_diamond());
  const auto results = rig.engine.probe_batch(
      std::vector<ProbeEngine::ProbeRequest>{{3, 1}, {3, 1}, {3, 1}});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(rig.engine.packets_sent(), 3u);  // one datagram per slot
  std::set<std::uint16_t> probe_ids;
  for (const auto& r : results) {
    EXPECT_TRUE(r.answered);
    probe_ids.insert(r.probe_ip_id);
    // Same flow, same ttl: per-flow load balancing pins the path.
    EXPECT_EQ(r.responder, results[0].responder);
  }
  EXPECT_EQ(probe_ids.size(), 3u);  // distinct wire datagrams
}

TEST(ProbeBatch, WindowWhereEveryProbeExhaustsMaxRetries) {
  SilentQueue network;
  ProbeEngine::Config config;
  config.source = net::Ipv4Address(192, 168, 0, 1);
  config.destination = net::Ipv4Address(10, 0, 0, 1);
  config.max_retries = 2;
  ProbeEngine engine(network, config);
  std::vector<ProbeEngine::ProbeRequest> requests;
  for (FlowId f = 0; f < 4; ++f) requests.push_back({f, 2});
  const auto results = engine.probe_batch(requests);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_FALSE(r.answered);
    EXPECT_EQ(r.attempts, 3);  // 1 initial + max_retries, all spent
  }
  // Every slot stays in every retry round: 4 probes x 3 attempts, sent
  // as 3 shrinking-to-nothing windows of 4.
  EXPECT_EQ(engine.packets_sent(), 12u);
  EXPECT_EQ(network.sent.size(), 12u);
}

TEST(ProbeBatch, AttemptsCountRetriesActuallyUsed) {
  Rig rig(topo::simplest_diamond());
  const auto results = rig.engine.probe_batch(
      std::vector<ProbeEngine::ProbeRequest>{{0, 1}, {1, 1}});
  for (const auto& r : results) EXPECT_EQ(r.attempts, 1);
}

TEST(PingBatch, AnswersSweepWithEchoEvidence) {
  Rig rig(topo::simplest_diamond());
  // Ping every interface of the diamond in one sweep.
  std::vector<net::Ipv4Address> targets;
  const auto& g = rig.truth.graph;
  for (topo::VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto addr = g.vertex(v).addr;
    if (!addr.is_unspecified() && addr != rig.truth.source) {
      targets.push_back(addr);
    }
  }
  const auto echoes = rig.engine.ping_batch(targets);
  ASSERT_EQ(echoes.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_TRUE(echoes[i].answered);
    EXPECT_EQ(echoes[i].responder, targets[i]);
    EXPECT_EQ(echoes[i].attempts, 1);
  }
  EXPECT_EQ(rig.engine.echo_probes_sent(), targets.size());
}

TEST(PingBatch, EmptySweepIsANoOp) {
  Rig rig(topo::simplest_diamond());
  EXPECT_TRUE(rig.engine.ping_batch({}).empty());
  EXPECT_EQ(rig.engine.packets_sent(), 0u);
}

TEST(ProbeBatch, VirtualClockAdvancesToSlowestReply) {
  Rig rig(topo::simplest_diamond());
  const auto t0 = rig.engine.now();
  std::vector<ProbeEngine::ProbeRequest> requests;
  for (FlowId f = 0; f < 6; ++f) requests.push_back({f, 1});
  const auto results = rig.engine.probe_batch(requests);
  Nanos slowest = 0;
  for (const auto& r : results) slowest = std::max(slowest, r.recv_time);
  EXPECT_GT(rig.engine.now(), t0);
  EXPECT_EQ(rig.engine.now(), slowest);
}

TEST(ThrottledNetwork, ChargesOneTokenPerProbe) {
  topo::GroundTruth truth = core::plain_ground_truth(topo::simplest_diamond());
  fakeroute::Simulator simulator(truth, {}, 1);
  SimulatedNetwork network(simulator);
  orchestrator::RateLimiter limiter(1e9, 1 << 20);  // effectively unlimited
  orchestrator::ThrottledNetwork throttled(network, limiter);

  ProbeEngine::Config config;
  config.source = truth.source;
  config.destination = truth.destination;
  ProbeEngine engine(throttled, config);
  (void)engine.probe(0, 1);
  (void)engine.probe(1, 1);
  std::vector<ProbeEngine::ProbeRequest> requests;
  for (FlowId f = 0; f < 5; ++f) requests.push_back({f, 1});
  (void)engine.probe_batch(requests);
  EXPECT_EQ(limiter.granted(), engine.packets_sent());
}

TEST(ThrottledNetwork, ThrottledTraceIsBitIdenticalToUnthrottled) {
  const auto truth = core::plain_ground_truth(topo::max_length_2_diamond());
  const auto plain = core::run_trace(truth, core::Algorithm::kMda, {}, {}, 3);

  fakeroute::Simulator simulator(truth, {}, 3);
  SimulatedNetwork network(simulator);
  orchestrator::RateLimiter limiter(1e9, 1 << 20);
  orchestrator::ThrottledNetwork throttled(network, limiter);
  ProbeEngine engine(throttled, {.source = truth.source,
                                 .destination = truth.destination});
  const auto gated = core::run_tracer(engine, core::Algorithm::kMda, {});

  EXPECT_EQ(gated.packets, plain.packets);
  EXPECT_TRUE(topo::same_topology(gated.graph, plain.graph));
}

}  // namespace
}  // namespace mmlpt::probe
