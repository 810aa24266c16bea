#include "core/trace_log.h"

#include "common/assert.h"

namespace mmlpt::core {

void DiscoveryRecorder::ensure_hop(int hop) {
  MMLPT_EXPECTS(hop >= 0);
  while (static_cast<int>(vertices_.size()) <= hop) {
    vertices_.emplace_back();
    vertex_sets_.emplace_back();
    edges_.emplace_back();
  }
}

bool DiscoveryRecorder::add_vertex(int hop, net::Ipv4Address addr,
                                   std::uint64_t packets) {
  if (addr.is_unspecified()) return false;
  ensure_hop(hop);
  const auto [it, inserted] =
      vertex_sets_[static_cast<std::size_t>(hop)].insert(addr);
  if (!inserted) return false;
  vertices_[static_cast<std::size_t>(hop)].push_back(addr);
  events_.push_back({packets, false});
  ++vertex_total_;
  return true;
}

bool DiscoveryRecorder::add_edge(int hop, net::Ipv4Address from,
                                 net::Ipv4Address to, std::uint64_t packets) {
  if (from.is_unspecified() || to.is_unspecified()) return false;
  ensure_hop(hop + 1);
  MMLPT_EXPECTS(has_vertex(hop, from));
  MMLPT_EXPECTS(has_vertex(hop + 1, to));
  const auto [it, inserted] =
      edges_[static_cast<std::size_t>(hop)].insert({from, to});
  if (!inserted) return false;
  events_.push_back({packets, true});
  ++edge_total_;
  return true;
}

const std::vector<net::Ipv4Address>& DiscoveryRecorder::vertices(
    int hop) const {
  static const std::vector<net::Ipv4Address> kEmpty;
  if (hop < 0 || hop >= hop_count()) return kEmpty;
  return vertices_[static_cast<std::size_t>(hop)];
}

bool DiscoveryRecorder::has_vertex(int hop, net::Ipv4Address addr) const {
  if (hop < 0 || hop >= hop_count()) return false;
  return vertex_sets_[static_cast<std::size_t>(hop)].count(addr) > 0;
}

std::size_t DiscoveryRecorder::successor_count(int hop,
                                               net::Ipv4Address addr) const {
  if (hop < 0 || hop >= hop_count()) return 0;
  std::size_t count = 0;
  for (const auto& [from, to] : edges_[static_cast<std::size_t>(hop)]) {
    if (from == addr) ++count;
  }
  return count;
}

std::size_t DiscoveryRecorder::predecessor_count(int hop,
                                                 net::Ipv4Address addr) const {
  if (hop <= 0 || hop > hop_count()) return 0;
  std::size_t count = 0;
  for (const auto& [from, to] : edges_[static_cast<std::size_t>(hop - 1)]) {
    if (to == addr) ++count;
  }
  return count;
}

std::vector<net::Ipv4Address> DiscoveryRecorder::successors(
    int hop, net::Ipv4Address addr) const {
  std::vector<net::Ipv4Address> out;
  if (hop < 0 || hop >= hop_count()) return out;
  for (const auto& [from, to] : edges_[static_cast<std::size_t>(hop)]) {
    if (from == addr) out.push_back(to);
  }
  return out;
}

topo::MultipathGraph DiscoveryRecorder::to_graph() const {
  topo::MultipathGraph g;
  for (int h = 0; h < hop_count(); ++h) {
    g.add_hop();
    // A repeated address (a trace to the source itself, a routing loop)
    // keeps its first hop; edges at later hops find no vertex for it.
    for (const auto addr : vertices_[static_cast<std::size_t>(h)]) {
      (void)g.try_add_vertex(static_cast<std::uint16_t>(h), addr);
    }
  }
  for (int h = 0; h + 1 < hop_count(); ++h) {
    for (const auto& [from, to] : edges_[static_cast<std::size_t>(h)]) {
      const auto a = g.find_at(static_cast<std::uint16_t>(h), from);
      const auto b = g.find_at(static_cast<std::uint16_t>(h + 1), to);
      if (a != topo::kInvalidVertex && b != topo::kInvalidVertex) {
        g.add_edge(a, b);
      }
    }
  }
  return g;
}

void finalize_stop_set(const TraceConfig& config, net::IpAddress destination,
                       int destination_distance, TraceResult& result) {
  StopSet* stop_set = config.stop_set;
  if (stop_set == nullptr) return;
  result.stop_set_active = config.consult_stop_set;
  if (result.stop_set_active && result.stopped_on_hit) {
    if (const auto prior = stop_set->destination(destination)) {
      if (prior->probes > result.packets) {
        result.probes_saved_by_stop_set = prior->probes - result.packets;
      }
    }
  }
  // Only a FULL trace that reached its destination updates the record:
  // stopped traces would otherwise decay the baseline the savings are
  // measured against.
  if (result.reached_destination && !result.stopped_on_hit &&
      destination_distance > 0) {
    stop_set->record_destination(
        destination, {destination_distance, result.packets});
  }
}

}  // namespace mmlpt::core
