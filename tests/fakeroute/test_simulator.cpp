#include "fakeroute/simulator.h"

#include <gtest/gtest.h>

#include <set>

#include "core/validation.h"
#include "net/packet.h"
#include "topology/reference.h"

namespace mmlpt::fakeroute {
namespace {

topo::GroundTruth diamond_truth() {
  return core::plain_ground_truth(topo::simplest_diamond());
}

std::vector<std::uint8_t> probe_bytes(const topo::GroundTruth& truth,
                                      std::uint16_t src_port,
                                      std::uint8_t ttl) {
  net::ProbeSpec spec;
  spec.src = net::Ipv4Address(192, 168, 0, 1);
  spec.dst = truth.destination;
  spec.src_port = src_port;
  spec.ttl = ttl;
  return net::build_udp_probe(spec);
}

TEST(Simulator, Ttl1HitsDivergencePoint) {
  const auto truth = diamond_truth();
  Simulator sim(truth, {}, 1);
  const auto reply = sim.handle(probe_bytes(truth, 40000, 1), 1'000'000'000);
  ASSERT_TRUE(reply.has_value());
  const auto parsed = net::parse_reply(reply->datagram);
  EXPECT_TRUE(parsed.is_time_exceeded());
  // Hop 1 from the divergence point (hop 0) is one of the two middle
  // vertices... wait: hop 0 of a bare diamond IS the divergence point, so
  // TTL 1 expires at hop 1: a middle vertex.
  const auto responder = parsed.responder();
  EXPECT_TRUE(responder == topo::reference_addr(1, 1, 0) ||
              responder == topo::reference_addr(1, 1, 1));
}

TEST(Simulator, HighTtlReachesDestinationPortUnreachable) {
  const auto truth = diamond_truth();
  Simulator sim(truth, {}, 1);
  const auto reply = sim.handle(probe_bytes(truth, 40000, 30), 1'000'000'000);
  ASSERT_TRUE(reply.has_value());
  const auto parsed = net::parse_reply(reply->datagram);
  EXPECT_TRUE(parsed.is_port_unreachable());
  EXPECT_EQ(parsed.responder(), truth.destination);
}

TEST(Simulator, PerFlowForwardingIsDeterministic) {
  const auto truth = diamond_truth();
  Simulator sim(truth, {}, 7);
  for (std::uint16_t port = 40000; port < 40020; ++port) {
    const auto first = sim.handle(probe_bytes(truth, port, 1), 1'000'000'000);
    const auto second = sim.handle(probe_bytes(truth, port, 1), 2'000'000'000);
    ASSERT_TRUE(first && second);
    EXPECT_EQ(net::parse_reply(first->datagram).responder(),
              net::parse_reply(second->datagram).responder());
  }
}

TEST(Simulator, FlowsSpreadAcrossBothBranches) {
  const auto truth = diamond_truth();
  Simulator sim(truth, {}, 7);
  std::set<std::uint32_t> seen;
  for (std::uint16_t port = 40000; port < 40032; ++port) {
    const auto reply = sim.handle(probe_bytes(truth, port, 1), 1'000'000'000);
    ASSERT_TRUE(reply.has_value());
    seen.insert(net::parse_reply(reply->datagram).responder().value());
  }
  EXPECT_EQ(seen.size(), 2u);  // 32 flows across 2 branches: both seen
}

TEST(Simulator, QuotedProbeComesBack) {
  const auto truth = diamond_truth();
  Simulator sim(truth, {}, 1);
  const auto probe = probe_bytes(truth, 41555, 1);
  const auto reply = sim.handle(probe, 1'000'000'000);
  ASSERT_TRUE(reply.has_value());
  const auto parsed = net::parse_reply(reply->datagram);
  ASSERT_TRUE(parsed.quoted_udp.has_value());
  EXPECT_EQ(parsed.quoted_udp->src_port, 41555);
  ASSERT_TRUE(parsed.quoted_ip.has_value());
  EXPECT_EQ(parsed.quoted_ip->dst, truth.destination);
}

TEST(Simulator, EchoProbeAnswered) {
  // Every interface answers, in either family, at the hop of the vertex
  // that owns the address: the reply TTL is the initial echo TTL minus
  // that hop, and the jitter-free RTT follows it too.
  SimConfig config;
  config.jitter_ms = 0.0;
  for (const auto& graph :
       {topo::simplest_diamond(), topo::fig1_meshed(),
        topo::map_to_ipv6(topo::fig1_meshed())}) {
    const auto truth = core::plain_ground_truth(graph);
    const bool v6 = truth.destination.family() == net::Family::kIpv6;
    Simulator sim(truth, config, 1);
    const auto src = v6 ? net::IpAddress::v6(0x20010db8'00000000ULL, 1)
                        : net::IpAddress(192, 168, 0, 1);
    for (topo::VertexId v = 0; v < truth.graph.vertex_count(); ++v) {
      const auto& vertex = truth.graph.vertex(v);
      if (vertex.addr.is_unspecified()) continue;
      const auto reply = sim.handle(
          net::build_echo_probe(src, vertex.addr, 9, 1), 1'000'000'000);
      ASSERT_TRUE(reply) << vertex.addr.to_string();
      const auto parsed = net::parse_reply(reply->datagram);
      EXPECT_TRUE(parsed.is_echo_reply());
      EXPECT_EQ(parsed.responder(), vertex.addr);
      const int ttl = v6 ? parsed.outer6.hop_limit : parsed.outer.ttl;
      EXPECT_EQ(ttl, truth.router_of(v).fingerprint.initial_ttl_echo -
                         vertex.hop)
          << vertex.addr.to_string();
      const auto rtt_ms =
          config.base_rtt_ms +
          config.per_hop_rtt_ms * static_cast<double>(vertex.hop);
      EXPECT_EQ(reply->rtt, static_cast<Nanos>(rtt_ms * 1e6));
    }
  }
}

TEST(Simulator, EchoToUnknownAddressUnanswered) {
  const auto truth = diamond_truth();
  Simulator sim(truth, {}, 1);
  const net::IpAddress src(192, 168, 0, 1);
  // An address the route lacks, a star's (unspecified) address, and a
  // route interface's bytes in the other family: none is an interface.
  const auto in_route = topo::reference_addr(1, 1, 0);
  const std::vector<std::pair<net::IpAddress, net::IpAddress>> targets = {
      {src, net::IpAddress(9, 9, 9, 9)},
      {src, net::IpAddress()},
      {net::IpAddress::v6(0x20010db8'00000000ULL, 1),
       net::IpAddress::v6(0, in_route.value())},
  };
  std::uint64_t expected = 0;
  for (const auto& [from, to] : targets) {
    EXPECT_FALSE(
        sim.handle(net::build_echo_probe(from, to, 9, 1), 1'000'000'000))
        << to.to_string();
    EXPECT_EQ(sim.counters().dropped_unroutable, ++expected);
  }
  EXPECT_EQ(sim.counters().replies_out, 0u);
}

TEST(Simulator, RouterIpIdStreamsDoNotDependOnFirstProbeOrder) {
  // Router state is built when a router first answers; each router's
  // stream must still be the one an eager fork in router order gives,
  // whichever router answers first.
  auto truth = diamond_truth();
  truth.routers[1].ip_id_policy = topo::IpIdPolicy::kRandom;
  const auto a = topo::reference_addr(1, 1, 0);
  const auto b = topo::reference_addr(1, 1, 1);
  const net::IpAddress src(192, 168, 0, 1);
  constexpr int kReplies = 4;
  const auto ids = [&](Simulator& sim, const net::IpAddress& target) {
    std::vector<std::uint16_t> out;
    for (int i = 0; i < kReplies; ++i) {
      const auto reply = sim.handle(
          net::build_echo_probe(src, target, 9, static_cast<std::uint16_t>(i)),
          static_cast<Nanos>(i + 1) * 1'000'000'000);
      EXPECT_TRUE(reply);
      if (!reply) return out;
      out.push_back(net::parse_reply(reply->datagram).outer.identification);
    }
    return out;
  };
  Simulator a_first(truth, {}, 11);
  const auto a1 = ids(a_first, a);
  const auto b1 = ids(a_first, b);
  Simulator b_first(truth, {}, 11);
  const auto b2 = ids(b_first, b);
  const auto a2 = ids(b_first, a);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);

  // The eager construction: one fork per router, in router order.
  Rng parent(11);
  std::vector<Rng> forks;
  for (std::size_t r = 0; r < truth.routers.size(); ++r) {
    forks.push_back(parent.fork());
  }
  for (const auto& [target, seen] : {std::pair{a, a1}, std::pair{b, b1}}) {
    const auto router = truth.vertex_router[truth.graph.find(target)];
    RouterState eager(truth.routers[router], forks[router]);
    for (int i = 0; i < kReplies; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(i)],
                eager.next_ip_id(target,
                                 static_cast<Nanos>(i + 1) * 1'000'000'000,
                                 0, ReplyKind::kEcho))
          << target.to_string() << " reply " << i;
    }
  }
}

TEST(Simulator, UnresponsiveRouterDropsIndirect) {
  auto truth = diamond_truth();
  truth.routers[1].responds_to_indirect = false;  // a middle vertex
  truth.routers[2].responds_to_indirect = false;  // the other one
  Simulator sim(truth, {}, 1);
  EXPECT_FALSE(sim.handle(probe_bytes(truth, 40000, 1), 1'000'000'000));
  EXPECT_GE(sim.counters().dropped_unresponsive, 1u);
}

TEST(Simulator, UnresponsiveToDirectStillAnswersIndirect) {
  auto truth = diamond_truth();
  for (auto& r : truth.routers) r.responds_to_direct = false;
  Simulator sim(truth, {}, 1);
  EXPECT_TRUE(sim.handle(probe_bytes(truth, 40000, 1), 1'000'000'000));
  const auto echo = net::build_echo_probe(net::Ipv4Address(192, 168, 0, 1),
                                          topo::reference_addr(1, 1, 0), 9, 1);
  EXPECT_FALSE(sim.handle(echo, 1'000'000'000));
}

TEST(Simulator, LossDropsSomeReplies) {
  const auto truth = diamond_truth();
  SimConfig config;
  config.loss_prob = 0.5;
  Simulator sim(truth, config, 3);
  int answered = 0;
  for (int i = 0; i < 200; ++i) {
    if (sim.handle(probe_bytes(truth, static_cast<std::uint16_t>(40000 + i), 1),
                   1'000'000'000 + i)) {
      ++answered;
    }
  }
  EXPECT_GT(answered, 60);
  EXPECT_LT(answered, 140);
  EXPECT_EQ(sim.counters().dropped_loss,
            200u - static_cast<unsigned>(answered));
}

TEST(Simulator, RateLimitingKicksIn) {
  const auto truth = diamond_truth();
  SimConfig config;
  config.icmp_rate_limit = 100.0;  // 100 replies/s
  config.rate_limit_burst = 4;
  Simulator sim(truth, config, 3);
  // Fire 20 probes within one millisecond at the same router.
  int answered = 0;
  for (int i = 0; i < 20; ++i) {
    if (sim.handle(probe_bytes(truth, 40000, 2), 1'000'000'000 + i * 10'000)) {
      ++answered;
    }
  }
  EXPECT_LE(answered, 5);
  EXPECT_GT(sim.counters().dropped_rate_limit, 0u);
}

TEST(Simulator, PerPacketLbVariesPath) {
  const auto truth = diamond_truth();
  SimConfig config;
  config.per_packet_lb = true;
  Simulator sim(truth, config, 11);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 64; ++i) {
    const auto reply = sim.handle(probe_bytes(truth, 40000, 1),
                                  1'000'000'000 + i);
    ASSERT_TRUE(reply);
    seen.insert(net::parse_reply(reply->datagram).responder().value());
  }
  // Same flow, but per-packet balancing: both branches seen.
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Simulator, PerDestinationLbIgnoresPorts) {
  const auto truth = diamond_truth();
  SimConfig config;
  config.per_destination_lb = true;
  Simulator sim(truth, config, 13);
  std::set<std::uint32_t> seen;
  for (std::uint16_t port = 40000; port < 40032; ++port) {
    const auto reply = sim.handle(probe_bytes(truth, port, 1), 1'000'000'000);
    ASSERT_TRUE(reply);
    seen.insert(net::parse_reply(reply->datagram).responder().value());
  }
  EXPECT_EQ(seen.size(), 1u);  // ports no longer matter
}

TEST(Simulator, MplsLabelsAttached) {
  auto truth = diamond_truth();
  truth.routers[1].mpls_label = 12345;
  Simulator sim(truth, {}, 1);
  // Find a flow hitting vertex 1 (addr 10.1.1.0).
  for (std::uint16_t port = 40000; port < 40100; ++port) {
    const auto reply = sim.handle(probe_bytes(truth, port, 1), 1'000'000'000);
    ASSERT_TRUE(reply);
    const auto parsed = net::parse_reply(reply->datagram);
    if (parsed.responder() == topo::reference_addr(1, 1, 0)) {
      ASSERT_EQ(parsed.icmp.mpls_labels.size(), 1u);
      EXPECT_EQ(parsed.icmp.mpls_labels[0].label, 12345u);
      return;
    }
  }
  FAIL() << "no flow reached the labelled vertex";
}

TEST(Simulator, ReplyTtlReflectsFingerprintAndDistance) {
  auto truth = diamond_truth();
  for (auto& r : truth.routers) r.fingerprint = {255, 64};
  Simulator sim(truth, {}, 1);
  const auto reply = sim.handle(probe_bytes(truth, 40000, 1), 1'000'000'000);
  ASSERT_TRUE(reply);
  // Hop 1 responder, initial 255 -> reply TTL 254.
  EXPECT_EQ(net::parse_reply(reply->datagram).outer.ttl, 254);
}

TEST(Simulator, RttGrowsWithHop) {
  const auto truth = diamond_truth();
  SimConfig config;
  config.jitter_ms = 0.0;
  Simulator sim(truth, config, 1);
  const auto near = sim.handle(probe_bytes(truth, 40000, 1), 1'000'000'000);
  const auto far = sim.handle(probe_bytes(truth, 40000, 30), 1'000'000'000);
  ASSERT_TRUE(near && far);
  EXPECT_LT(near->rtt, far->rtt);
}

}  // namespace
}  // namespace mmlpt::fakeroute
