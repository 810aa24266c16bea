#include "probe/engine.h"

#include <gtest/gtest.h>

#include <set>

#include "core/validation.h"
#include "fakeroute/simulator.h"
#include "probe/simulated_network.h"
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

TEST(ProbeEngine, ProbeGetsTimeExceeded) {
  Rig rig(topo::simplest_diamond());
  const auto r = rig.engine.probe(0, 1);
  EXPECT_TRUE(r.answered);
  EXPECT_FALSE(r.from_destination);
  EXPECT_FALSE(r.responder.is_unspecified());
  EXPECT_GT(r.recv_time, r.send_time);
}

TEST(ProbeEngine, DestinationDetected) {
  Rig rig(topo::simplest_diamond());
  const auto r = rig.engine.probe(0, 10);
  EXPECT_TRUE(r.answered);
  EXPECT_TRUE(r.from_destination);
  EXPECT_EQ(r.responder, rig.truth.destination);
}

TEST(ProbeEngine, SameFlowSamePath) {
  Rig rig(topo::max_length_2_diamond());
  const auto a = rig.engine.probe(42, 1);
  const auto b = rig.engine.probe(42, 1);
  EXPECT_EQ(a.responder, b.responder);
}

TEST(ProbeEngine, DifferentFlowsSpread) {
  Rig rig(topo::max_length_2_diamond());
  std::set<std::uint32_t> responders;
  for (FlowId f = 0; f < 64; ++f) {
    responders.insert(rig.engine.probe(f, 1).responder.value());
  }
  EXPECT_GT(responders.size(), 10u);  // 64 flows over 28 vertices
}

TEST(ProbeEngine, PacketAccounting) {
  Rig rig(topo::simplest_diamond());
  EXPECT_EQ(rig.engine.packets_sent(), 0u);
  (void)rig.engine.probe(0, 1);
  (void)rig.engine.probe(1, 1);
  EXPECT_EQ(rig.engine.packets_sent(), 2u);
  EXPECT_EQ(rig.engine.trace_probes_sent(), 2u);
  (void)rig.engine.ping_batch({&rig.truth.destination, 1});
  EXPECT_EQ(rig.engine.packets_sent(), 3u);
  EXPECT_EQ(rig.engine.echo_probes_sent(), 1u);
}

TEST(ProbeEngine, RetriesCountAsPackets) {
  fakeroute::SimConfig sim;
  sim.loss_prob = 1.0;  // nothing ever answers
  Rig rig(topo::simplest_diamond(), sim);
  const auto r = rig.engine.probe(0, 1);
  EXPECT_FALSE(r.answered);
  // 1 initial + 2 retries (default max_retries = 2).
  EXPECT_EQ(rig.engine.packets_sent(), 3u);
}

TEST(ProbeEngine, RetryRecoversFromLoss) {
  fakeroute::SimConfig sim;
  sim.loss_prob = 0.4;
  Rig rig(topo::simplest_diamond(), sim, 5);
  int answered = 0;
  for (FlowId f = 0; f < 100; ++f) {
    if (rig.engine.probe(f, 1).answered) ++answered;
  }
  // P(3 losses in a row) = 0.064: nearly everything answered.
  EXPECT_GT(answered, 85);
}

TEST(ProbeEngine, VirtualClockAdvances) {
  Rig rig(topo::simplest_diamond());
  const auto t0 = rig.engine.now();
  (void)rig.engine.probe(0, 1);
  EXPECT_GT(rig.engine.now(), t0);
}

TEST(ProbeEngine, PingCollectsIpId) {
  Rig rig(topo::simplest_diamond());
  const auto target = topo::reference_addr(1, 1, 0);
  const auto a = rig.engine.ping_batch({&target, 1}).front();
  ASSERT_TRUE(a.answered);
  EXPECT_EQ(a.responder, target);
}

TEST(ProbeEngine, FlowPortsBijective) {
  Rig rig(topo::simplest_diamond());
  std::set<std::pair<std::uint16_t, std::uint16_t>> seen;
  for (FlowId f = 0; f < 100000; f += 997) {
    EXPECT_TRUE(seen.insert(rig.engine.flow_ports(f)).second);
  }
  // Crossing the source-port cycle boundary bumps the dst port.
  const std::uint32_t cycle = 65536u - rig.engine.config().base_src_port;
  const auto before = rig.engine.flow_ports(cycle - 1);
  const auto after = rig.engine.flow_ports(cycle);
  EXPECT_EQ(after.second, before.second + 1);
}

TEST(ProbeEngine, FlowPortsWrapAt16Bits) {
  Rig rig(topo::simplest_diamond());
  const auto base_src = rig.engine.config().base_src_port;
  const auto base_dst = rig.engine.config().base_dst_port;
  const std::uint32_t cycle = 65536u - base_src;

  // The last flow of the first cycle pins the source port to 65535...
  const auto last = rig.engine.flow_ports(cycle - 1);
  EXPECT_EQ(last.first, 65535);
  EXPECT_EQ(last.second, base_dst);
  // ...and the next flow wraps the source port back to base while the
  // destination port steps up, opening a fresh cycle of 5-tuples.
  const auto wrapped = rig.engine.flow_ports(cycle);
  EXPECT_EQ(wrapped.first, base_src);
  EXPECT_EQ(wrapped.second, base_dst + 1);
  // Same shape at every later cycle boundary.
  const auto far = rig.engine.flow_ports(1000 * cycle);
  EXPECT_EQ(far.first, base_src);
  EXPECT_EQ(far.second, static_cast<std::uint16_t>(base_dst + 1000));
}

TEST(ProbeEngine, FlowPortsAddressBillionsOfFlows) {
  // The claim in engine.h: source port cycles, destination port steps
  // once per cycle, so cycle * 65536 (~2.1 billion with the default
  // base) distinct flows map to distinct (src, dst) pairs. Exhaustive
  // enumeration is out; instead check injectivity structurally — flow
  // a + b*cycle maps to (base_src + a, base_dst + b), so distinct
  // (a, b) pairs give distinct port pairs across the whole range.
  Rig rig(topo::simplest_diamond());
  const auto base_src = rig.engine.config().base_src_port;
  const auto base_dst = rig.engine.config().base_dst_port;
  const std::uint32_t cycle = 65536u - base_src;
  const std::uint64_t addressable =
      static_cast<std::uint64_t>(cycle) * 65536ULL;
  EXPECT_GT(addressable, 2'000'000'000ULL);  // billions, literally

  for (const std::uint32_t a : {0u, 1u, 12345u, cycle - 1}) {
    for (const std::uint32_t b : {0u, 1u, 777u, 65535u - base_dst}) {
      const FlowId flow = a + b * cycle;
      const auto [src, dst] = rig.engine.flow_ports(flow);
      EXPECT_EQ(src, base_src + a);
      EXPECT_EQ(dst, static_cast<std::uint16_t>(base_dst + b));
    }
  }

  // A sample of far-apart flows across the full range stays collision
  // free (spot check of the bijection).
  std::set<std::pair<std::uint16_t, std::uint16_t>> seen;
  for (std::uint64_t flow = 0; flow < addressable;
       flow += 7'368'787ULL) {  // prime stride, ~285 samples
    EXPECT_TRUE(
        seen.insert(rig.engine.flow_ports(static_cast<FlowId>(flow))).second)
        << "collision at flow " << flow;
  }
}

TEST(ProbeEngine, MplsLabelsSurface) {
  auto truth = core::plain_ground_truth(topo::simplest_diamond());
  truth.routers[1].mpls_label = 777;
  truth.routers[2].mpls_label = 778;
  fakeroute::Simulator simulator(truth, {}, 1);
  SimulatedNetwork network(simulator);
  ProbeEngine::Config config;
  config.source = truth.source;
  config.destination = truth.destination;
  ProbeEngine engine(network, config);
  const auto r = engine.probe(0, 1);
  ASSERT_TRUE(r.answered);
  ASSERT_EQ(r.mpls_labels.size(), 1u);
  EXPECT_TRUE(r.mpls_labels[0].label == 777 || r.mpls_labels[0].label == 778);
}

}  // namespace
}  // namespace mmlpt::probe
