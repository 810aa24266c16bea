#include "fakeroute/simulator.h"

#include "common/assert.h"

namespace mmlpt::fakeroute {

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Simulator::Simulator(const topo::GroundTruth& truth, SimConfig config,
                     std::uint64_t seed)
    : truth_(&truth), config_(config), rng_(seed), lb_salt_(mix64(seed)) {
  MMLPT_EXPECTS(truth.vertex_router.size() == truth.graph.vertex_count());
  routers_.resize(truth.routers.size());
  for (auto& slot : routers_) slot.seed = rng_.engine()();
  if (config_.icmp_rate_limit) {
    limiters_.assign(truth.routers.size(),
                     RateLimiter(*config_.icmp_rate_limit,
                                 config_.rate_limit_burst));
  }
}

RouterState& Simulator::router_state(std::uint32_t router_index) {
  MMLPT_EXPECTS(router_index < routers_.size());
  auto& slot = routers_[router_index];
  if (!slot.state) {
    slot.state = std::make_unique<RouterState>(truth_->routers[router_index],
                                               Rng(slot.seed));
  }
  return *slot.state;
}

Nanos Simulator::sample_rtt(std::uint16_t hop) {
  const double ms = config_.base_rtt_ms +
                    config_.per_hop_rtt_ms * static_cast<double>(hop) +
                    rng_.real() * config_.jitter_ms;
  return static_cast<Nanos>(ms * 1e6);
}

topo::VertexId Simulator::walk(const net::FlowTuple& flow, std::uint16_t hop) {
  const auto& g = truth_->graph;
  MMLPT_EXPECTS(hop < g.hop_count());
  net::FlowTuple hashed = flow;
  if (config_.per_destination_lb) {
    // Erase every Paris identifier the family carries: ports (v4) and
    // the flow label (v6) — a per-destination LB hashes addresses only.
    hashed.src_port = 0;
    hashed.dst_port = 0;
    hashed.flow_label = 0;
  }
  const std::uint64_t flow_digest = hashed.digest();

  topo::VertexId v = g.vertices_at(0)[0];
  for (std::uint16_t h = 0; h < hop; ++h) {
    const auto next = g.successors(v);
    MMLPT_ASSERT(!next.empty());
    if (next.size() == 1) {
      v = next[0];
    } else if (config_.per_packet_lb) {
      v = next[rng_.index(next.size())];
    } else {
      // Per-flow: deterministic, uniform-at-random across successors,
      // independent per load-balancing vertex (salted by vertex id).
      const std::uint64_t h64 = mix64(flow_digest ^ mix64(lb_salt_ ^ v));
      v = next[h64 % next.size()];
    }
  }
  return v;
}

std::optional<SimReply> Simulator::emit(
    std::uint32_t router_index, net::IpAddress interface, net::IpAddress to,
    std::uint16_t hop, std::uint16_t probe_ip_id, ReplyKind kind,
    const net::IcmpMessage& message, Nanos now) {
  const auto& spec = truth_->routers[router_index];
  const bool responds = kind == ReplyKind::kEcho ? spec.responds_to_direct
                                                 : spec.responds_to_indirect;
  if (!responds) {
    ++counters_.dropped_unresponsive;
    return std::nullopt;
  }
  if (!limiters_.empty() && !limiters_[router_index].allow(now)) {
    ++counters_.dropped_rate_limit;
    return std::nullopt;
  }
  if (config_.loss_prob > 0.0 && rng_.chance(config_.loss_prob)) {
    ++counters_.dropped_loss;
    return std::nullopt;
  }

  const std::uint8_t initial_ttl = kind == ReplyKind::kEcho
                                       ? spec.fingerprint.initial_ttl_echo
                                       : spec.fingerprint.initial_ttl_error;
  // The reply decrements once per hop on the way back; with symmetric
  // paths that is `hop` decrements (Network Fingerprinting's model).
  const auto reply_ttl = static_cast<std::uint8_t>(
      initial_ttl > hop ? initial_ttl - hop : 1);

  // IPv6 carries no identification field: the router's IP-ID machinery
  // never runs, which is exactly why v6 alias resolution degrades to
  // "unsupported-family" upstream.
  const std::uint16_t ip_id =
      interface.is_v4() ? router_state(router_index)
                              .next_ip_id(interface, now, probe_ip_id, kind)
                        : 0;
  SimReply reply;
  reply.datagram =
      net::build_icmp_datagram(message, interface, to, reply_ttl, ip_id);
  reply.rtt = sample_rtt(hop);
  ++counters_.replies_out;
  return reply;
}

std::optional<SimReply> Simulator::handle_udp(
    const net::ParsedProbe& probe, std::span<const std::uint8_t> raw,
    Nanos now) {
  const auto& g = truth_->graph;
  const std::uint16_t dest_hop = g.hop_count() - 1;
  const std::uint16_t expiry_hop =
      std::min<std::uint16_t>(probe.ttl(), dest_hop);
  const topo::VertexId v = walk(probe.flow(), expiry_hop);
  const std::uint32_t router = truth_->vertex_router[v];
  const auto interface = g.vertex(v).addr;
  if (interface.is_unspecified()) {
    ++counters_.dropped_unresponsive;  // star: never answers
    return std::nullopt;
  }

  // Routers quote the IP header + 8 bytes of the offending datagram, with
  // its TTL as seen on arrival; MPLS labels are attached when the
  // receiving interface is inside a labelled tunnel.
  const std::size_t header_size = probe.family == net::Family::kIpv6
                                      ? net::kIpv6HeaderSize
                                      : net::kIpv4HeaderSize;
  std::vector<std::uint8_t> quoted(
      raw.begin(),
      raw.begin() + std::min<std::size_t>(raw.size(), header_size + 8));
  std::vector<net::MplsLabelEntry> labels;
  const auto& spec = truth_->routers[router];
  if (spec.mpls_label) {
    labels.push_back({*spec.mpls_label, 0, true,
                      static_cast<std::uint8_t>(expiry_hop + 1)});
  }

  const auto message =
      expiry_hop == dest_hop
          ? net::make_port_unreachable(probe.family, quoted, labels)
          : net::make_time_exceeded(quoted, labels);
  return emit(router, interface, probe.src(), expiry_hop, probe.ip_id(),
              ReplyKind::kError, message, now);
}

std::optional<SimReply> Simulator::handle_echo(const net::ParsedProbe& probe,
                                               Nanos now) {
  const topo::VertexId vertex = truth_->graph.find(probe.dst());
  if (vertex == topo::kInvalidVertex) {
    ++counters_.dropped_unroutable;
    return std::nullopt;
  }
  const std::uint32_t router = truth_->vertex_router[vertex];
  const std::uint16_t hop = truth_->graph.vertex(vertex).hop;
  return emit(router, probe.dst(), probe.src(), hop, probe.ip_id(),
              ReplyKind::kEcho, net::make_echo_reply(probe.icmp), now);
}

std::optional<SimReply> Simulator::handle(std::span<const std::uint8_t> probe,
                                          Nanos now) {
  ++counters_.probes_in;
  const auto parsed = net::parse_probe(probe);
  if (parsed.is_udp()) {
    return handle_udp(parsed, probe, now);
  }
  if (parsed.is_echo_request()) {
    return handle_echo(parsed, now);
  }
  ++counters_.dropped_unroutable;
  return std::nullopt;
}

}  // namespace mmlpt::fakeroute
