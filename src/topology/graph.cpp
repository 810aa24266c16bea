#include "topology/graph.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_map>

#include "common/assert.h"
#include "common/error.h"
#include "common/rng.h"

namespace mmlpt::topo {

std::uint16_t MultipathGraph::add_hop() {
  hops_.emplace_back();
  return static_cast<std::uint16_t>(hops_.size() - 1);
}

VertexId MultipathGraph::add_vertex(std::uint16_t hop, net::Ipv4Address addr) {
  const auto id = try_add_vertex(hop, addr);
  if (id == kInvalidVertex) {
    throw TopologyError("duplicate vertex address " + addr.to_string());
  }
  return id;
}

VertexId MultipathGraph::try_add_vertex(std::uint16_t hop,
                                        net::Ipv4Address addr) {
  MMLPT_EXPECTS(hop < hops_.size());
  const auto id = static_cast<VertexId>(vertices_.size());
  if (!addr.is_unspecified()) {
    const std::size_t wanted = 2 * (vertices_.size() + 1);
    if (wanted > index_.size()) {
      rehash(std::max<std::size_t>(16, std::bit_ceil(wanted)));
    }
    const std::size_t slot = slot_of(addr);
    if (index_[slot] != kInvalidVertex) return kInvalidVertex;
    index_[slot] = id;
  }
  vertices_.push_back({addr, hop});
  hops_[hop].push_back(id);
  succ_.emplace_back();
  pred_.emplace_back();
  return id;
}

void MultipathGraph::add_edge(VertexId from, VertexId to) {
  MMLPT_EXPECTS(from < vertices_.size() && to < vertices_.size());
  if (vertices_[to].hop != vertices_[from].hop + 1) {
    throw TopologyError("edge must join adjacent hops (" +
                        std::to_string(vertices_[from].hop) + " -> " +
                        std::to_string(vertices_[to].hop) + ")");
  }
  if (has_edge(from, to)) return;
  succ_[from].push_back(to);
  pred_[to].push_back(from);
  ++edge_count_;
}

const Vertex& MultipathGraph::vertex(VertexId v) const {
  MMLPT_EXPECTS(v < vertices_.size());
  return vertices_[v];
}

std::span<const VertexId> MultipathGraph::vertices_at(
    std::uint16_t hop) const {
  MMLPT_EXPECTS(hop < hops_.size());
  return hops_[hop];
}

std::span<const VertexId> MultipathGraph::successors(VertexId v) const {
  MMLPT_EXPECTS(v < vertices_.size());
  return succ_[v];
}

std::span<const VertexId> MultipathGraph::predecessors(VertexId v) const {
  MMLPT_EXPECTS(v < vertices_.size());
  return pred_[v];
}

std::size_t MultipathGraph::slot_of(
    const net::IpAddress& addr) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot =
      Rng::split_mix(addr.hi64() ^ Rng::split_mix(addr.lo64())) & mask;
  while (index_[slot] != kInvalidVertex &&
         vertices_[index_[slot]].addr != addr) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void MultipathGraph::rehash(std::size_t slots) {
  index_.assign(slots, kInvalidVertex);
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    if (!vertices_[v].addr.is_unspecified()) {
      index_[slot_of(vertices_[v].addr)] = v;
    }
  }
}

VertexId MultipathGraph::find(net::Ipv4Address addr) const noexcept {
  if (addr.is_unspecified() || index_.empty()) return kInvalidVertex;
  return index_[slot_of(addr)];
}

VertexId MultipathGraph::find_at(std::uint16_t hop,
                                 net::Ipv4Address addr) const noexcept {
  if (hop >= hops_.size() || addr.is_unspecified()) return kInvalidVertex;
  for (VertexId v : hops_[hop]) {
    if (vertices_[v].addr == addr) return v;
  }
  return kInvalidVertex;
}

bool MultipathGraph::has_edge(VertexId from, VertexId to) const noexcept {
  if (from >= vertices_.size()) return false;
  return std::find(succ_[from].begin(), succ_[from].end(), to) !=
         succ_[from].end();
}

std::vector<double> MultipathGraph::reach_probabilities() const {
  if (hops_.empty()) return {};
  if (hops_[0].size() != 1) {
    throw TopologyError(
        "reach_probabilities requires a single vertex at hop 0");
  }
  std::vector<double> p(vertices_.size(), 0.0);
  p[hops_[0][0]] = 1.0;
  for (std::size_t h = 0; h + 1 < hops_.size(); ++h) {
    for (VertexId v : hops_[h]) {
      const auto& next = succ_[v];
      if (next.empty()) continue;
      const double share = p[v] / static_cast<double>(next.size());
      for (VertexId s : next) p[s] += share;
    }
  }
  return p;
}

void MultipathGraph::validate() const {
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    if (hops_[h].empty()) {
      throw TopologyError("hop " + std::to_string(h) + " has no vertices");
    }
    for (VertexId v : hops_[h]) {
      if (h + 1 < hops_.size() && succ_[v].empty()) {
        throw TopologyError("vertex " + vertices_[v].addr.to_string() +
                            " at hop " + std::to_string(h) +
                            " has no successor");
      }
      if (h > 0 && pred_[v].empty()) {
        throw TopologyError("vertex " + vertices_[v].addr.to_string() +
                            " at hop " + std::to_string(h) +
                            " has no predecessor");
      }
    }
  }
}

std::string MultipathGraph::to_string() const {
  std::ostringstream out;
  for (std::uint16_t h = 0; h < hops_.size(); ++h) {
    out << "hop " << h << ":";
    for (VertexId v : hops_[h]) {
      out << ' '
          << (vertices_[v].addr.is_unspecified() ? std::string("*")
                                                 : vertices_[v].addr.to_string());
      if (!succ_[v].empty()) {
        out << "->[";
        for (std::size_t i = 0; i < succ_[v].size(); ++i) {
          if (i > 0) out << ',';
          out << vertices_[succ_[v][i]].addr.to_string();
        }
        out << ']';
      }
    }
    out << '\n';
  }
  return out.str();
}

namespace {

/// Address-level edge set of a graph.
std::vector<std::pair<net::IpAddress, net::IpAddress>> edge_set(
    const MultipathGraph& g) {
  std::vector<std::pair<net::IpAddress, net::IpAddress>> edges;
  for (std::uint16_t h = 0; h < g.hop_count(); ++h) {
    for (VertexId v : g.vertices_at(h)) {
      for (VertexId s : g.successors(v)) {
        edges.emplace_back(g.vertex(v).addr, g.vertex(s).addr);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

}  // namespace

bool same_topology(const MultipathGraph& a, const MultipathGraph& b) {
  if (a.hop_count() != b.hop_count()) return false;
  for (std::uint16_t h = 0; h < a.hop_count(); ++h) {
    std::vector<net::IpAddress> av;
    std::vector<net::IpAddress> bv;
    for (VertexId v : a.vertices_at(h)) av.push_back(a.vertex(v).addr);
    for (VertexId v : b.vertices_at(h)) bv.push_back(b.vertex(v).addr);
    std::sort(av.begin(), av.end());
    std::sort(bv.begin(), bv.end());
    if (av != bv) return false;
  }
  return edge_set(a) == edge_set(b);
}

MultipathGraph map_to_ipv6(const MultipathGraph& g) {
  const auto map_addr = [](const net::IpAddress& addr) {
    if (addr.is_v6() || addr.is_unspecified()) return addr;
    // 2001:db8:4::a.b.c.d — the documentation prefix with a "4" site
    // marking the embedding, original v4 bytes in the low 32 bits.
    return net::IpAddress::v6(0x20010db8'00040000ULL, addr.value());
  };
  MultipathGraph mapped;
  std::vector<VertexId> ids(g.vertex_count(), kInvalidVertex);
  for (std::uint16_t h = 0; h < g.hop_count(); ++h) {
    mapped.add_hop();
    for (const VertexId v : g.vertices_at(h)) {
      ids[v] = mapped.add_vertex(h, map_addr(g.vertex(v).addr));
    }
  }
  for (std::uint16_t h = 0; h < g.hop_count(); ++h) {
    for (const VertexId v : g.vertices_at(h)) {
      for (const VertexId s : g.successors(v)) {
        mapped.add_edge(ids[v], ids[s]);
      }
    }
  }
  return mapped;
}

DiscoveryCount count_discovered(const MultipathGraph& truth,
                                const MultipathGraph& found) {
  DiscoveryCount count;
  for (std::uint16_t h = 0;
       h < std::min(truth.hop_count(), found.hop_count()); ++h) {
    for (VertexId v : found.vertices_at(h)) {
      const VertexId t = truth.find_at(h, found.vertex(v).addr);
      if (t == kInvalidVertex) continue;
      ++count.vertices;
      for (VertexId s : found.successors(v)) {
        const VertexId ts = truth.find_at(h + 1, found.vertex(s).addr);
        if (ts != kInvalidVertex && truth.has_edge(t, ts)) ++count.edges;
      }
    }
  }
  return count;
}

}  // namespace mmlpt::topo
