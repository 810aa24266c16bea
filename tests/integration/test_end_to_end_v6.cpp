// IPv6 end-to-end integration: v6 ground truths through the full stack —
// flow-label Paris probes on the wire, ICMPv6 replies, every tracer, the
// multilevel degradation contract, and window invariance per family.
#include <gtest/gtest.h>

#include "core/multilevel.h"
#include "core/trace_json.h"
#include "core/validation.h"
#include "probe/simulated_network.h"
#include "topology/generator.h"
#include "topology/reference.h"

namespace mmlpt {
namespace {

topo::GeneratorConfig v6_config() {
  topo::GeneratorConfig config;
  config.family = net::Family::kIpv6;
  return config;
}

TEST(EndToEndIpv6, GeneratedWorldsAreV6) {
  topo::RouteGenerator gen(v6_config(), 5);
  const auto route = gen.make_route();
  EXPECT_TRUE(route.source.is_v6());
  EXPECT_TRUE(route.destination.is_v6());
  for (topo::VertexId v = 0; v < route.graph.vertex_count(); ++v) {
    EXPECT_TRUE(route.graph.vertex(v).addr.is_v6());
  }
}

TEST(EndToEndIpv6, AllTracersRecoverGroundTruth) {
  // The acceptance criterion: tracing a v6 Fakeroute topology recovers
  // the ground-truth IP-level topology — for every algorithm.
  for (const auto algorithm :
       {core::Algorithm::kMda, core::Algorithm::kMdaLite}) {
    topo::RouteGenerator gen(v6_config(), 31);
    int full = 0;
    const int n = 12;
    for (int i = 0; i < n; ++i) {
      const auto route = gen.make_route();
      const auto result = core::run_trace(
          route, algorithm, {}, {}, 4000 + static_cast<std::uint64_t>(i));
      EXPECT_TRUE(result.reached_destination) << "route " << i;
      if (topo::same_topology(result.graph, route.graph)) ++full;
    }
    EXPECT_GE(full, n - 3);  // bounded failure probability, as on v4
  }
}

TEST(EndToEndIpv6, SingleFlowTracesOnePath) {
  topo::RouteGenerator gen(v6_config(), 32);
  const auto route = gen.make_route();
  const auto result =
      core::run_trace(route, core::Algorithm::kSingleFlow, {}, {}, 7);
  EXPECT_TRUE(result.reached_destination);
  for (std::uint16_t h = 0; h < result.graph.hop_count(); ++h) {
    EXPECT_LE(result.graph.vertices_at(h).size(), 1u);
  }
}

TEST(EndToEndIpv6, MirrorsV4DiscoveryOnTheSameStructure) {
  // A v4 reference diamond and its map_to_ipv6 image are the same
  // structure; the family must not change what the tracer discovers.
  const auto v4_graph = topo::fig1_unmeshed();
  const auto v6_graph = topo::map_to_ipv6(v4_graph);
  const auto v4 = core::run_trace(core::plain_ground_truth(v4_graph),
                                  core::Algorithm::kMda, {}, {}, 5);
  const auto v6 = core::run_trace(core::plain_ground_truth(v6_graph),
                                  core::Algorithm::kMda, {}, {}, 5);
  EXPECT_TRUE(topo::same_topology(v4.graph, v4_graph));
  EXPECT_TRUE(topo::same_topology(v6.graph, v6_graph));
  EXPECT_TRUE(v6.reached_destination);
}

core::MultilevelResult run_multilevel_v6(int window, std::uint64_t seed) {
  topo::RouteGenerator gen(v6_config(), 33);
  const auto route = gen.make_route();
  fakeroute::Simulator simulator(route, {}, seed);
  probe::SimulatedNetwork network(simulator);
  probe::ProbeEngine::Config engine_config;
  engine_config.source = route.source;
  engine_config.destination = route.destination;
  probe::ProbeEngine engine(network, engine_config);
  core::MultilevelConfig config;
  config.trace.window = window;
  core::MultilevelTracer tracer(engine, config);
  return tracer.run();
}

TEST(EndToEndIpv6, MultilevelDegradesToIpLevelWithExplicitMarker) {
  const auto result = run_multilevel_v6(/*window=*/1, /*seed=*/9);
  EXPECT_FALSE(result.alias_supported);
  // Degraded: exactly the round-0 snapshot, no alias sets, no extra
  // probing beyond the trace itself.
  ASSERT_EQ(result.rounds.size(), 1u);
  EXPECT_TRUE(result.rounds[0].sets_by_hop.empty());
  EXPECT_EQ(result.total_packets, result.trace.packets);
  EXPECT_TRUE(
      topo::same_topology(result.router_graph, result.trace.graph));
  // The JSON carries the explicit marker.
  const auto json = core::multilevel_to_json(result);
  EXPECT_NE(json.find("\"alias\":\"unsupported-family\""),
            std::string::npos);

  // v4 JSON does NOT carry the key at all (output stability).
  core::MultilevelResult v4_result;
  v4_result.alias_supported = true;
  EXPECT_EQ(core::multilevel_to_json(v4_result).find("unsupported-family"),
            std::string::npos);
}

TEST(EndToEndIpv6, WindowInvarianceHoldsOnV6) {
  // PR 3's contract, per family: topology, packet accounting and the
  // full JSON are identical for every window size.
  const auto w1 = run_multilevel_v6(1, 11);
  const auto w32 = run_multilevel_v6(32, 11);
  EXPECT_EQ(core::multilevel_to_json(w1), core::multilevel_to_json(w32));
  EXPECT_EQ(w1.total_packets, w32.total_packets);
}

TEST(EndToEndIpv6, PerDestinationLbIgnoresTheFlowLabel) {
  // A per-destination load balancer hashes addresses only: every flow
  // label must ride the same path (the Sec. 7 assumption-2 violation
  // model, v6 edition — the label is the Paris identifier here).
  const auto route =
      core::plain_ground_truth(topo::map_to_ipv6(topo::fig1_unmeshed()));
  fakeroute::SimConfig sim;
  sim.per_destination_lb = true;
  fakeroute::Simulator simulator(route, sim, 5);
  probe::SimulatedNetwork network(simulator);
  probe::ProbeEngine::Config engine_config;
  engine_config.source = route.source;
  engine_config.destination = route.destination;
  probe::ProbeEngine engine(network, engine_config);

  net::IpAddress first;
  for (probe::FlowId flow = 0; flow < 24; ++flow) {
    const auto r = engine.probe(flow, 2);
    ASSERT_TRUE(r.answered);
    if (flow == 0) {
      first = r.responder;
    } else {
      EXPECT_EQ(r.responder, first) << "flow " << flow;
    }
  }
}

TEST(EndToEndIpv6, EchoProbingWorksOnV6) {
  // Plain ground truth: every router answers direct probes.
  const auto route =
      core::plain_ground_truth(topo::map_to_ipv6(topo::fig1_unmeshed()));
  fakeroute::Simulator simulator(route, {}, 3);
  probe::SimulatedNetwork network(simulator);
  probe::ProbeEngine::Config engine_config;
  engine_config.source = route.source;
  engine_config.destination = route.destination;
  probe::ProbeEngine engine(network, engine_config);

  const auto result = engine.ping_batch({&route.destination, 1}).front();
  EXPECT_TRUE(result.answered);
  EXPECT_EQ(result.responder, route.destination);
  EXPECT_EQ(result.reply_ip_id, 0);  // no identification field on v6
}

}  // namespace
}  // namespace mmlpt
