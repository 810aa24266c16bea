#include "core/flow_cache.h"

#include <gtest/gtest.h>

#include "core/validation.h"
#include "fakeroute/simulator.h"
#include "probe/simulated_network.h"
#include "topology/reference.h"

namespace mmlpt::core {
namespace {

struct Rig {
  topo::GroundTruth truth;
  fakeroute::Simulator simulator;
  probe::SimulatedNetwork network;
  probe::ProbeEngine engine;
  FlowCache cache;

  Rig()
      : truth(plain_ground_truth(topo::simplest_diamond())),
        simulator(truth, {}, 1),
        network(simulator),
        engine(network, make_config(truth)),
        cache(engine) {}

  static probe::ProbeEngine::Config make_config(const topo::GroundTruth& t) {
    probe::ProbeEngine::Config c;
    c.source = t.source;
    c.destination = t.destination;
    return c;
  }
};

TEST(FlowCache, MemoizesProbes) {
  Rig rig;
  const auto& first = rig.cache.probe(0, 1);
  const auto packets = rig.engine.packets_sent();
  const auto& second = rig.cache.probe(0, 1);
  EXPECT_EQ(rig.engine.packets_sent(), packets);  // no new packet
  EXPECT_EQ(&first, &second);
}

TEST(FlowCache, LookupOnlyFindsProbed) {
  Rig rig;
  EXPECT_EQ(rig.cache.lookup(0, 1), nullptr);
  (void)rig.cache.probe(0, 1);
  EXPECT_NE(rig.cache.lookup(0, 1), nullptr);
  EXPECT_EQ(rig.cache.lookup(0, 2), nullptr);
  EXPECT_EQ(rig.cache.lookup(1, 1), nullptr);
}

TEST(FlowCache, FlowsAtTracksProbeOrder) {
  Rig rig;
  (void)rig.cache.probe(5, 1);
  (void)rig.cache.probe(3, 1);
  (void)rig.cache.probe(5, 2);
  const auto& at1 = rig.cache.flows_at(1);
  ASSERT_EQ(at1.size(), 2u);
  EXPECT_EQ(at1[0], 5u);
  EXPECT_EQ(at1[1], 3u);
  EXPECT_EQ(rig.cache.flows_at(2).size(), 1u);
  EXPECT_TRUE(rig.cache.flows_at(9).empty());
}

TEST(FlowCache, FlowsReachingGrowsInPlace) {
  Rig rig;
  const auto& r0 = rig.cache.probe(0, 1);
  ASSERT_TRUE(r0.answered);
  const auto& reaching = rig.cache.flows_reaching(1, r0.responder);
  const auto before = reaching.size();
  // Probe more flows; every one that lands on the same vertex must
  // appear in the same (stable) vector.
  for (FlowId f = 1; f < 30; ++f) {
    (void)rig.cache.probe(f, 1);
  }
  EXPECT_GT(reaching.size(), before);
  for (const auto f : reaching) {
    EXPECT_EQ(rig.cache.lookup(f, 1)->responder, r0.responder);
  }
}

TEST(FlowCache, FreshFlowsNeverRepeat) {
  Rig rig;
  std::set<FlowId> seen;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(rig.cache.fresh_flow()).second);
  }
}

TEST(FlowCache, ObserverFiresOncePerFreshAnsweredProbe) {
  Rig rig;
  int calls = 0;
  rig.cache.set_observer(
      [&](FlowId, int, const probe::TraceProbeResult&) { ++calls; });
  (void)rig.cache.probe(0, 1);
  (void)rig.cache.probe(0, 1);  // cached: no second call
  (void)rig.cache.probe(1, 1);
  EXPECT_EQ(calls, 2);
}

TEST(FlowCache, RejectsAbsurdTtl) {
  Rig rig;
  EXPECT_THROW((void)rig.cache.probe(0, 0), ContractViolation);
  EXPECT_THROW((void)rig.cache.probe(0, 300), ContractViolation);
}

TEST(FlowCache, PrefetchedEntriesStayInvisibleUntilConsumed) {
  Rig rig;
  const FlowCache::ProbeRequest requests[] = {{0, 1}, {1, 1}, {0, 2}};
  rig.cache.prefetch(requests);
  EXPECT_GT(rig.engine.packets_sent(), 0u);  // the window went out...
  EXPECT_EQ(rig.cache.lookup(0, 1), nullptr);  // ...but nothing is visible
  EXPECT_TRUE(rig.cache.flows_at(1).empty());
  EXPECT_EQ(rig.cache.packets_accounted(), 0u);

  const auto& r = rig.cache.probe(0, 1);  // consume: no new packet
  const auto wire = rig.engine.packets_sent();
  EXPECT_TRUE(r.answered);
  EXPECT_EQ(rig.engine.packets_sent(), wire);
  EXPECT_NE(rig.cache.lookup(0, 1), nullptr);
  EXPECT_EQ(rig.cache.flows_at(1).size(), 1u);
  EXPECT_EQ(rig.cache.packets_accounted(), 1u);
  EXPECT_EQ(rig.cache.lookup(1, 1), nullptr);  // others still unconsumed
}

TEST(FlowCache, PrefetchSkipsKnownEntriesAndWindowDuplicates) {
  Rig rig;
  (void)rig.cache.probe(0, 1);  // consumed entry
  const auto wire_before = rig.engine.packets_sent();
  const FlowCache::ProbeRequest requests[] = {
      {0, 1},  // already consumed: skipped
      {1, 1}, {1, 1},  // duplicate within the window: sent once
  };
  rig.cache.prefetch(requests);
  EXPECT_EQ(rig.engine.packets_sent(), wire_before + 1);
  rig.cache.prefetch(requests);  // everything known now: no packets
  EXPECT_EQ(rig.engine.packets_sent(), wire_before + 1);
}

TEST(FlowCache, ObserverFiresAtConsumptionInSerialOrder) {
  Rig rig;
  std::vector<FlowId> fired;
  rig.cache.set_observer(
      [&](FlowId flow, int, const probe::TraceProbeResult&) {
        fired.push_back(flow);
      });
  const FlowCache::ProbeRequest requests[] = {{0, 1}, {1, 1}, {2, 1}};
  rig.cache.prefetch(requests);
  EXPECT_TRUE(fired.empty());
  (void)rig.cache.probe(2, 1);  // consumption order, not fetch order
  (void)rig.cache.probe(0, 1);
  (void)rig.cache.probe(1, 1);
  EXPECT_EQ(fired, (std::vector<FlowId>{2, 0, 1}));
}

TEST(FlowCache, PacketsMatchesEngineWheneverEverythingIsConsumed) {
  Rig rig;
  const FlowCache::ProbeRequest requests[] = {{0, 1}, {1, 1}, {2, 2}};
  rig.cache.prefetch(requests);
  for (const auto& request : requests) {
    (void)rig.cache.probe(request.flow, request.ttl);
  }
  EXPECT_EQ(rig.cache.packets(), rig.engine.packets_sent());
}

TEST(FlowCache, ExtremeFlowIdAndTtlKeepDistinctEntries) {
  // The cache keys on (ttl << 32) | flow: the largest flow id at one TTL
  // must not meet flow 0 at the next, and TTL 255 must work.
  Rig rig;
  constexpr FlowId kMax = 0xFFFFFFFFU;
  (void)rig.cache.probe(kMax, 1);
  EXPECT_EQ(rig.cache.lookup(0, 2), nullptr);
  (void)rig.cache.probe(0, 2);
  (void)rig.cache.probe(kMax, 255);
  EXPECT_NE(rig.cache.lookup(kMax, 1), nullptr);
  EXPECT_NE(rig.cache.lookup(0, 2), nullptr);
  EXPECT_NE(rig.cache.lookup(kMax, 255), nullptr);
  EXPECT_EQ(rig.cache.lookup(0, 255), nullptr);
  EXPECT_EQ(rig.cache.flows_at(1), (std::vector<FlowId>{kMax}));
  EXPECT_EQ(rig.cache.flows_at(255), (std::vector<FlowId>{kMax}));
  EXPECT_EQ(rig.cache.packets_accounted(), 3u);
}

TEST(FlowCache, PrefetchWindowThatRehashesStillFillsEverySlot) {
  // Thousands of fresh entries in one window grow the hash map through
  // many rehashes while prefetch still holds pointers to the earliest
  // ones; every slot must come back with the reply a serial probe gets.
  Rig rig;
  Rig serial;
  std::vector<FlowCache::ProbeRequest> requests;
  for (FlowId flow = 0; flow < 2000; ++flow) {
    requests.push_back({flow, static_cast<std::uint8_t>(1 + flow % 3)});
  }
  rig.cache.prefetch(requests);
  for (const auto& [flow, ttl] : requests) {
    const auto& got = rig.cache.probe(flow, ttl);
    const auto& want = serial.cache.probe(flow, ttl);
    ASSERT_GE(got.attempts, 1) << "flow " << flow;
    EXPECT_EQ(got.answered, want.answered) << "flow " << flow;
    EXPECT_EQ(got.responder, want.responder) << "flow " << flow;
  }
  EXPECT_EQ(rig.cache.packets(), rig.engine.packets_sent());
  EXPECT_EQ(rig.cache.packets_accounted(), serial.cache.packets_accounted());
}

}  // namespace
}  // namespace mmlpt::core
