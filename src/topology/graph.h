// Layered multipath DAG: the ground-truth and discovered representation of
// a load-balanced route. Hop 0 holds the trace source (or a diamond's
// divergence point); edges connect adjacent hops only.
#ifndef MMLPT_TOPOLOGY_GRAPH_H
#define MMLPT_TOPOLOGY_GRAPH_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/ip_address.h"

namespace mmlpt::topo {

using VertexId = std::uint32_t;
inline constexpr VertexId kInvalidVertex = UINT32_MAX;

struct Vertex {
  net::Ipv4Address addr;  ///< unspecified (0.0.0.0) marks a non-responding "star"
  std::uint16_t hop = 0;
};

/// A layered multipath graph. Vertices live at hops 0..hop_count()-1 and
/// every edge joins hop i to hop i+1.
class MultipathGraph {
 public:
  MultipathGraph() = default;

  /// Append an empty hop; returns its index.
  std::uint16_t add_hop();

  /// Add a vertex at `hop` (which must exist). Addresses must be unique
  /// within the graph except for the unspecified (star) address.
  VertexId add_vertex(std::uint16_t hop, net::Ipv4Address addr);
  /// add_vertex() that returns kInvalidVertex instead of throwing when
  /// `addr` is already in the graph (one address-index lookup).
  VertexId try_add_vertex(std::uint16_t hop, net::Ipv4Address addr);

  /// Add an edge from `from` (hop i) to `to` (hop i+1). Duplicate edges are
  /// ignored.
  void add_edge(VertexId from, VertexId to);

  [[nodiscard]] std::uint16_t hop_count() const noexcept {
    return static_cast<std::uint16_t>(hops_.size());
  }
  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return vertices_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  [[nodiscard]] const Vertex& vertex(VertexId v) const;
  [[nodiscard]] std::span<const VertexId> vertices_at(std::uint16_t hop) const;
  [[nodiscard]] std::span<const VertexId> successors(VertexId v) const;
  [[nodiscard]] std::span<const VertexId> predecessors(VertexId v) const;
  [[nodiscard]] std::size_t out_degree(VertexId v) const {
    return successors(v).size();
  }
  [[nodiscard]] std::size_t in_degree(VertexId v) const {
    return predecessors(v).size();
  }

  /// Find a vertex by address; kInvalidVertex if absent. Stars cannot be
  /// looked up by address. O(1): a lookup in the address index.
  [[nodiscard]] VertexId find(net::Ipv4Address addr) const noexcept;
  /// Find a vertex by address at one hop.
  [[nodiscard]] VertexId find_at(std::uint16_t hop,
                                 net::Ipv4Address addr) const noexcept;
  [[nodiscard]] bool has_edge(VertexId from, VertexId to) const noexcept;

  /// Probability that a probe with a uniformly random flow identifier
  /// reaches each vertex, assuming every load balancer dispatches uniformly
  /// across its successors (the MDA model assumption). Requires hop 0 to
  /// hold exactly one vertex (probability 1).
  [[nodiscard]] std::vector<double> reach_probabilities() const;

  /// Structural validation: every non-final vertex has a successor, every
  /// non-initial vertex a predecessor, all edges adjacent-hop. Throws
  /// TopologyError with a diagnostic if violated.
  void validate() const;

  /// Total number of (vertices, edges) — convenience for discovery ratios.
  [[nodiscard]] std::pair<std::size_t, std::size_t> size_pair() const noexcept {
    return {vertex_count(), edge_count()};
  }

  /// Human-readable multi-line rendering (one line per hop).
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Vertex> vertices_;
  std::vector<std::vector<VertexId>> hops_;
  std::vector<std::vector<VertexId>> succ_;
  std::vector<std::vector<VertexId>> pred_;
  std::size_t edge_count_ = 0;
  /// Address index: open addressing with linear probing over vertex ids
  /// (kInvalidVertex = empty slot). Its size is zero or a power of two
  /// at least twice vertex_count(); stars are never indexed. Flat rather
  /// than node-based, so indexing adds one allocation per graph, not one
  /// per vertex.
  std::vector<VertexId> index_;

  /// Slot holding `addr`, or the empty slot where it would go.
  [[nodiscard]] std::size_t slot_of(const net::IpAddress& addr) const noexcept;
  /// Rebuild index_ at `slots` (a power of two) from vertices_.
  void rehash(std::size_t slots);
};

/// True if the two graphs contain the same set of addresses per hop and the
/// same address-level edges (vertex ids may differ).
[[nodiscard]] bool same_topology(const MultipathGraph& a,
                                 const MultipathGraph& b);

/// Count how many of `found`'s vertices/edges appear in `truth` (by address).
struct DiscoveryCount {
  std::size_t vertices = 0;
  std::size_t edges = 0;
};
[[nodiscard]] DiscoveryCount count_discovered(const MultipathGraph& truth,
                                              const MultipathGraph& found);

/// Deterministically embed every IPv4 address of `g` into the IPv6
/// documentation prefix (2001:db8:4::a.b.c.d), preserving structure and
/// stars — the one-line way to run any v4 reference topology as a v6
/// ground truth. Graphs that are already v6 pass through unchanged.
[[nodiscard]] MultipathGraph map_to_ipv6(const MultipathGraph& g);

}  // namespace mmlpt::topo

#endif  // MMLPT_TOPOLOGY_GRAPH_H
