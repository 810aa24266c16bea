#include "core/trace_log.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace mmlpt::core {
namespace {

const net::Ipv4Address kA(10, 0, 0, 1);
const net::Ipv4Address kB(10, 0, 0, 2);
const net::Ipv4Address kC(10, 0, 0, 3);

TEST(DiscoveryRecorder, VertexDeduplication) {
  DiscoveryRecorder rec;
  EXPECT_TRUE(rec.add_vertex(0, kA, 1));
  EXPECT_FALSE(rec.add_vertex(0, kA, 2));
  EXPECT_EQ(rec.vertex_total(), 1u);
  EXPECT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].packets, 1u);
  EXPECT_FALSE(rec.events()[0].is_edge);
}

TEST(DiscoveryRecorder, StarsIgnored) {
  DiscoveryRecorder rec;
  EXPECT_FALSE(rec.add_vertex(0, {}, 1));
  EXPECT_EQ(rec.vertex_total(), 0u);
}

TEST(DiscoveryRecorder, EdgeNeedsBothVertices) {
  DiscoveryRecorder rec;
  rec.add_vertex(0, kA, 1);
  EXPECT_THROW(rec.add_edge(0, kA, kB, 2), ContractViolation);
  rec.add_vertex(1, kB, 2);
  EXPECT_TRUE(rec.add_edge(0, kA, kB, 3));
  EXPECT_FALSE(rec.add_edge(0, kA, kB, 4));  // dedup
  EXPECT_EQ(rec.edge_total(), 1u);
}

TEST(DiscoveryRecorder, DegreeQueries) {
  DiscoveryRecorder rec;
  rec.add_vertex(0, kA, 1);
  rec.add_vertex(1, kB, 1);
  rec.add_vertex(1, kC, 1);
  rec.add_edge(0, kA, kB, 2);
  rec.add_edge(0, kA, kC, 3);
  EXPECT_EQ(rec.successor_count(0, kA), 2u);
  EXPECT_EQ(rec.predecessor_count(1, kB), 1u);
  EXPECT_EQ(rec.predecessor_count(1, kC), 1u);
  EXPECT_EQ(rec.successor_count(1, kB), 0u);
  const auto succ = rec.successors(0, kA);
  EXPECT_EQ(succ.size(), 2u);
}

TEST(DiscoveryRecorder, OutOfRangeQueriesAreSafe) {
  DiscoveryRecorder rec;
  EXPECT_TRUE(rec.vertices(0).empty());
  EXPECT_TRUE(rec.vertices(-1).empty());
  EXPECT_FALSE(rec.has_vertex(5, kA));
  EXPECT_EQ(rec.successor_count(7, kA), 0u);
  EXPECT_EQ(rec.predecessor_count(-2, kA), 0u);
}

TEST(DiscoveryRecorder, ToGraphPreservesStructure) {
  DiscoveryRecorder rec;
  rec.add_vertex(0, kA, 1);
  rec.add_vertex(1, kB, 2);
  rec.add_vertex(1, kC, 3);
  rec.add_edge(0, kA, kB, 4);
  rec.add_edge(0, kA, kC, 5);
  const auto g = rec.to_graph();
  EXPECT_EQ(g.hop_count(), 2);
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_NE(g.find_at(1, kC), topo::kInvalidVertex);
}

TEST(DiscoveryRecorder, ToGraphToleratesPartialDiscovery) {
  DiscoveryRecorder rec;
  rec.add_vertex(0, kA, 1);
  rec.add_vertex(2, kB, 2);  // gap at hop 1 (silent hop)
  const auto g = rec.to_graph();
  EXPECT_EQ(g.hop_count(), 3);
  EXPECT_TRUE(g.vertices_at(1).empty());
}

TEST(DiscoveryRecorder, ToGraphKeepsARepeatedAddressAtItsFirstHop) {
  // A trace to the source itself: the destination answers at hop 1 with
  // the hop-0 address. The later occurrence and its edges are dropped.
  DiscoveryRecorder rec;
  rec.add_vertex(0, kA, 1);
  rec.add_vertex(1, kA, 2);
  rec.add_vertex(1, kB, 3);
  rec.add_vertex(2, kC, 4);
  rec.add_edge(0, kA, kA, 5);
  rec.add_edge(0, kA, kB, 6);
  rec.add_edge(1, kA, kC, 7);
  rec.add_edge(1, kB, kC, 8);
  topo::MultipathGraph g;
  ASSERT_NO_THROW(g = rec.to_graph());
  EXPECT_EQ(g.hop_count(), 3);
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.find(kA), g.find_at(0, kA));
  EXPECT_EQ(g.find_at(1, kA), topo::kInvalidVertex);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(g.find(kA), g.find(kB)));
  EXPECT_TRUE(g.has_edge(g.find(kB), g.find(kC)));
}

TEST(DiscoveryRecorder, EventsInterleaveVerticesAndEdges) {
  DiscoveryRecorder rec;
  rec.add_vertex(0, kA, 10);
  rec.add_vertex(1, kB, 20);
  rec.add_edge(0, kA, kB, 20);
  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_FALSE(rec.events()[0].is_edge);
  EXPECT_TRUE(rec.events()[2].is_edge);
  EXPECT_EQ(rec.events()[2].packets, 20u);
}

}  // namespace
}  // namespace mmlpt::core
