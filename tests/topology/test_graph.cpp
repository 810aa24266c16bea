#include "topology/graph.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "topology/reference.h"

namespace mmlpt::topo {
namespace {

MultipathGraph two_hop_chain() {
  MultipathGraph g;
  g.add_hop();
  g.add_hop();
  const auto a = g.add_vertex(0, net::Ipv4Address(10, 0, 0, 1));
  const auto b = g.add_vertex(1, net::Ipv4Address(10, 0, 0, 2));
  g.add_edge(a, b);
  return g;
}

TEST(MultipathGraph, BasicConstruction) {
  const auto g = two_hop_chain();
  EXPECT_EQ(g.hop_count(), 2);
  EXPECT_EQ(g.vertex_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.vertices_at(0).size(), 1u);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
}

TEST(MultipathGraph, DuplicateAddressRejected) {
  MultipathGraph g;
  g.add_hop();
  g.add_hop();
  (void)g.add_vertex(0, net::Ipv4Address(10, 0, 0, 1));
  EXPECT_THROW((void)g.add_vertex(1, net::Ipv4Address(10, 0, 0, 1)),
               TopologyError);
}

TEST(MultipathGraph, StarsMayRepeat) {
  MultipathGraph g;
  g.add_hop();
  g.add_hop();
  EXPECT_NO_THROW((void)g.add_vertex(0, {}));
  EXPECT_NO_THROW((void)g.add_vertex(1, {}));
  // Many stars in both families: none is indexed, none is found.
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(g.try_add_vertex(0, {}), kInvalidVertex);
    EXPECT_NE(g.try_add_vertex(1, net::IpAddress::v6({})), kInvalidVertex);
  }
  EXPECT_EQ(g.vertex_count(), 202u);
  EXPECT_EQ(g.find({}), kInvalidVertex);
  EXPECT_EQ(g.find(net::IpAddress::v6({})), kInvalidVertex);
  EXPECT_EQ(g.find_at(0, {}), kInvalidVertex);
  // The first addressed vertex sizes the index past the stars.
  const auto v = g.add_vertex(0, net::Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(g.find(net::Ipv4Address(10, 0, 0, 1)), v);
}

TEST(MultipathGraph, NonAdjacentEdgeRejected) {
  MultipathGraph g;
  g.add_hop();
  g.add_hop();
  g.add_hop();
  const auto a = g.add_vertex(0, net::Ipv4Address(10, 0, 0, 1));
  const auto c = g.add_vertex(2, net::Ipv4Address(10, 0, 0, 3));
  EXPECT_THROW(g.add_edge(a, c), TopologyError);
  EXPECT_THROW(g.add_edge(c, a), TopologyError);
}

TEST(MultipathGraph, DuplicateEdgeIgnored) {
  auto g = two_hop_chain();
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(MultipathGraph, FindByAddress) {
  const auto g = two_hop_chain();
  EXPECT_EQ(g.find(net::Ipv4Address(10, 0, 0, 2)), 1u);
  EXPECT_EQ(g.find(net::Ipv4Address(9, 9, 9, 9)), kInvalidVertex);
  EXPECT_EQ(g.find_at(1, net::Ipv4Address(10, 0, 0, 2)), 1u);
  EXPECT_EQ(g.find_at(0, net::Ipv4Address(10, 0, 0, 2)), kInvalidVertex);
}

/// The i-th address of a mixed population: even i is v4, odd i v6, with
/// strides that land many keys on shared low bits.
net::IpAddress nth_address(std::uint32_t i) {
  if (i % 2 == 0) return net::Ipv4Address(0x0A000000U + (i << 8));
  return net::IpAddress::v6(0x20010db8'00000000ULL, std::uint64_t{i} << 32);
}

/// What find() must agree with: the first vertex holding `addr`.
VertexId linear_find(const MultipathGraph& g, const net::IpAddress& addr) {
  if (addr.is_unspecified()) return kInvalidVertex;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.vertex(v).addr == addr) return v;
  }
  return kInvalidVertex;
}

/// 1,200 addressed vertices (half v4, half v6) and a star every tenth
/// vertex, spread over 30 hops.
MultipathGraph big_graph() {
  MultipathGraph g;
  for (int h = 0; h < 30; ++h) g.add_hop();
  for (std::uint32_t i = 0; i < 1200; ++i) {
    const auto hop = static_cast<std::uint16_t>(i % 30);
    if (i % 10 == 0) (void)g.add_vertex(hop, {});
    (void)g.add_vertex(hop, nth_address(i));
  }
  return g;
}

TEST(MultipathGraph, FindAgreesWithALinearScanAcrossGrowths) {
  MultipathGraph g;
  for (int h = 0; h < 30; ++h) g.add_hop();
  for (std::uint32_t i = 0; i < 1200; ++i) {
    const auto id =
        g.add_vertex(static_cast<std::uint16_t>(i % 30), nth_address(i));
    EXPECT_EQ(g.find(nth_address(i)), id);
    // Every power of two is a table growth: re-check the whole population
    // and a sample of absent addresses there.
    if ((i & (i + 1)) == 0 || i == 1199) {
      for (std::uint32_t j = 0; j < 1300; ++j) {
        const auto addr = nth_address(j);
        ASSERT_EQ(g.find(addr), linear_find(g, addr))
            << addr.to_string() << " after " << i + 1 << " vertices";
      }
    }
  }
  EXPECT_EQ(g.find(nth_address(1200)), kInvalidVertex);
  // The v4 and v6 spellings of the same bytes are different addresses.
  EXPECT_EQ(g.find(net::IpAddress::v6(nth_address(0).bytes())),
            kInvalidVertex);
}

TEST(MultipathGraph, DuplicateRejectedAfterGrowth) {
  auto g = big_graph();
  const auto vertices = g.vertex_count();
  for (const std::uint32_t i : {0U, 1U, 517U, 1199U}) {
    EXPECT_THROW((void)g.add_vertex(3, nth_address(i)), TopologyError);
    EXPECT_EQ(g.try_add_vertex(3, nth_address(i)), kInvalidVertex);
  }
  EXPECT_EQ(g.vertex_count(), vertices);
  EXPECT_EQ(g.vertices_at(3).size(), 40u);
}

TEST(MultipathGraph, FindOnAnEmptyGraph) {
  const MultipathGraph g;
  EXPECT_EQ(g.find(net::Ipv4Address(10, 0, 0, 1)), kInvalidVertex);
  EXPECT_EQ(g.find({}), kInvalidVertex);
  EXPECT_EQ(g.find_at(0, net::Ipv4Address(10, 0, 0, 1)), kInvalidVertex);
}

TEST(MultipathGraph, CopiedAndMovedGraphsFindEveryAddress) {
  auto original = big_graph();
  const MultipathGraph copy = original;
  const MultipathGraph moved = std::move(original);
  for (const auto* g : {&copy, &moved}) {
    ASSERT_EQ(g->vertex_count(), 1320u);
    for (std::uint32_t i = 0; i < 1200; ++i) {
      const auto v = g->find(nth_address(i));
      ASSERT_NE(v, kInvalidVertex) << nth_address(i).to_string();
      EXPECT_EQ(g->vertex(v).addr, nth_address(i));
    }
  }
  // The copy is independent: growing it leaves the moved-to graph alone.
  MultipathGraph grown = copy;
  (void)grown.add_vertex(0, nth_address(5000));
  EXPECT_NE(grown.find(nth_address(5000)), kInvalidVertex);
  EXPECT_EQ(moved.find(nth_address(5000)), kInvalidVertex);
}

TEST(MultipathGraph, ReachProbabilitiesUniformDiamond) {
  const auto g = simplest_diamond();
  const auto p = g.reach_probabilities();
  // Divergence 1.0; two middle vertices 0.5 each; convergence 1.0.
  EXPECT_DOUBLE_EQ(p[g.vertices_at(0)[0]], 1.0);
  EXPECT_DOUBLE_EQ(p[g.vertices_at(1)[0]], 0.5);
  EXPECT_DOUBLE_EQ(p[g.vertices_at(1)[1]], 0.5);
  EXPECT_DOUBLE_EQ(p[g.vertices_at(2)[0]], 1.0);
}

TEST(MultipathGraph, ReachProbabilitiesSumToOnePerHop) {
  const auto g = symmetric_diamond();
  const auto p = g.reach_probabilities();
  for (std::uint16_t h = 0; h < g.hop_count(); ++h) {
    double sum = 0.0;
    for (const auto v : g.vertices_at(h)) sum += p[v];
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(MultipathGraph, ValidateCatchesDanglingVertex) {
  MultipathGraph g;
  g.add_hop();
  g.add_hop();
  (void)g.add_vertex(0, net::Ipv4Address(10, 0, 0, 1));
  (void)g.add_vertex(1, net::Ipv4Address(10, 0, 0, 2));
  EXPECT_THROW(g.validate(), TopologyError);  // no edge, both dangling
}

TEST(MultipathGraph, SameTopologyIgnoresInsertionOrder) {
  MultipathGraph a;
  a.add_hop();
  a.add_hop();
  const auto a0 = a.add_vertex(0, net::Ipv4Address(10, 0, 0, 1));
  const auto a1 = a.add_vertex(1, net::Ipv4Address(10, 0, 0, 2));
  const auto a2 = a.add_vertex(1, net::Ipv4Address(10, 0, 0, 3));
  a.add_edge(a0, a1);
  a.add_edge(a0, a2);

  MultipathGraph b;
  b.add_hop();
  b.add_hop();
  const auto b0 = b.add_vertex(0, net::Ipv4Address(10, 0, 0, 1));
  const auto b2 = b.add_vertex(1, net::Ipv4Address(10, 0, 0, 3));
  const auto b1 = b.add_vertex(1, net::Ipv4Address(10, 0, 0, 2));
  b.add_edge(b0, b2);
  b.add_edge(b0, b1);

  EXPECT_TRUE(same_topology(a, b));
}

TEST(MultipathGraph, SameTopologyDetectsMissingEdge) {
  const auto full = fig1_meshed();
  auto partial = fig1_unmeshed();
  EXPECT_FALSE(same_topology(full, partial));
}

TEST(MultipathGraph, CountDiscovered) {
  const auto truth = simplest_diamond();
  // A partial discovery: divergence + one middle vertex + the edge.
  MultipathGraph found;
  found.add_hop();
  found.add_hop();
  const auto d = found.add_vertex(0, reference_addr(1, 0, 0));
  const auto m = found.add_vertex(1, reference_addr(1, 1, 0));
  found.add_edge(d, m);
  const auto count = count_discovered(truth, found);
  EXPECT_EQ(count.vertices, 2u);
  EXPECT_EQ(count.edges, 1u);
}

TEST(MultipathGraph, CountDiscoveredIgnoresPhantoms) {
  const auto truth = simplest_diamond();
  MultipathGraph found;
  found.add_hop();
  (void)found.add_vertex(0, net::Ipv4Address(99, 9, 9, 9));  // not in truth
  const auto count = count_discovered(truth, found);
  EXPECT_EQ(count.vertices, 0u);
}

TEST(MultipathGraph, ToStringShowsHops) {
  const auto g = two_hop_chain();
  const auto text = g.to_string();
  EXPECT_NE(text.find("hop 0:"), std::string::npos);
  EXPECT_NE(text.find("10.0.0.1"), std::string::npos);
  EXPECT_NE(text.find("->[10.0.0.2]"), std::string::npos);
}

}  // namespace
}  // namespace mmlpt::topo
