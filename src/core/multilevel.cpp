#include "core/multilevel.h"

#include <algorithm>
#include <set>

#include "common/assert.h"

namespace mmlpt::core {

/// Harvests per-address evidence and a usable (flow, ttl) pair for each
/// discovered address while the MDA-Lite trace runs.
class MultilevelTracer::Collector : public ReplyObserver {
 public:
  explicit Collector(alias::AliasResolver& resolver) : resolver_(&resolver) {}

  void on_trace_reply(FlowId flow, int ttl,
                      const probe::TraceProbeResult& r) override {
    MMLPT_EXPECTS(r.answered);
    resolver_->add_ip_id_sample(r.responder, r.recv_time, r.reply_ip_id,
                                r.probe_ip_id);
    resolver_->add_error_reply_ttl(r.responder, r.reply_ttl);
    resolver_->add_mpls(r.responder, r.mpls_labels);
    flows_.emplace(std::make_pair(ttl, r.responder), flow);
  }

  /// A flow known to reach `addr` at `ttl`, if the trace saw one.
  [[nodiscard]] std::optional<FlowId> flow_for(int ttl,
                                               net::Ipv4Address addr) const {
    const auto it = flows_.find(std::make_pair(ttl, addr));
    if (it == flows_.end()) return std::nullopt;
    return it->second;
  }

 private:
  alias::AliasResolver* resolver_;
  std::map<std::pair<int, net::Ipv4Address>, FlowId> flows_;
};

MultilevelResult MultilevelTracer::run() {
  const std::uint64_t packets_before = engine_->packets_sent();
  alias::AliasResolver resolver(config_.resolver);
  Collector collector(resolver);

  MdaLiteTracer lite(*engine_, config_.trace, &collector);
  MultilevelResult result;
  result.trace = lite.run();

  // The MBT reasons over the IP-ID header field; IPv6 has none, so alias
  // resolution degrades gracefully: no candidates, no probing rounds,
  // router level == IP level, and the JSON says "unsupported-family".
  result.alias_supported = engine_->family() == net::Family::kIpv4;

  // Alias resolution applies within a hop; only multi-vertex hops can
  // hold aliases of a common router (Sec. 4.1).
  std::map<int, std::vector<net::IpAddress>> candidates_by_hop;
  if (result.alias_supported) {
    for (std::uint16_t h = 0; h < result.trace.graph.hop_count(); ++h) {
      const auto hop_vertices = result.trace.graph.vertices_at(h);
      if (hop_vertices.size() < 2) continue;
      auto& addrs = candidates_by_hop[h];
      for (const auto v : hop_vertices) {
        addrs.push_back(result.trace.graph.vertex(v).addr);
      }
    }
  }

  const auto snapshot = [&]() {
    RoundSnapshot snap;
    for (const auto& [hop, addrs] : candidates_by_hop) {
      snap.sets_by_hop[hop] = resolver.resolve(addrs);
    }
    snap.packets = engine_->packets_sent() - packets_before;
    result.rounds.push_back(std::move(snap));
  };

  snapshot();  // round 0: trace data only

  // One window per echo sweep / per interleaved indirect pass (capped at
  // the configured window size): the probe set of a sweep or pass is
  // fixed up front, so batching collapses its RTT waits without changing
  // the Sec. 4 probe counts, and sending pass-by-pass preserves the
  // alternating-sample discipline the MBT requires.
  const auto window =
      static_cast<std::size_t>(std::max(1, config_.trace.window));

  for (int round = 1; result.alias_supported && round <= config_.rounds;
       ++round) {
    for (const auto& [hop, addrs] : candidates_by_hop) {
      if (round == 1) {
        probe::for_each_window<net::Ipv4Address>(
            addrs, window, [&](std::span<const net::Ipv4Address> sweep) {
              const auto echoes = engine_->ping_batch(sweep);
              for (std::size_t j = 0; j < echoes.size(); ++j) {
                if (echoes[j].answered) {
                  resolver.add_echo_reply_ttl(sweep[j], echoes[j].reply_ttl);
                }
              }
            });
      }
      // Interleaved indirect probing: one probe per address per pass, so
      // the IP-ID samples of candidate aliases alternate in time — the
      // sampling discipline the MBT requires.
      std::vector<probe::ProbeEngine::ProbeRequest> pass_requests;
      for (const auto addr : addrs) {
        const auto flow = collector.flow_for(hop, addr);
        if (!flow) continue;  // never reached by a recorded flow
        pass_requests.push_back({*flow, static_cast<std::uint8_t>(hop)});
      }
      for (int pass = 0; pass < kMbtSamplesPerRound; ++pass) {
        probe::for_each_window<probe::ProbeEngine::ProbeRequest>(
            pass_requests, window,
            [&](std::span<const probe::ProbeEngine::ProbeRequest> sweep) {
              for (const auto& r : engine_->probe_batch(sweep)) {
                if (!r.answered) continue;
                resolver.add_ip_id_sample(r.responder, r.recv_time,
                                          r.reply_ip_id, r.probe_ip_id);
                resolver.add_error_reply_ttl(r.responder, r.reply_ttl);
                resolver.add_mpls(r.responder, r.mpls_labels);
              }
            });
      }
    }
    snapshot();
  }

  result.router_graph =
      merge_by_aliases(result.trace.graph, result.rounds.back().sets_by_hop);
  result.total_packets = engine_->packets_sent() - packets_before;
  result.resolver = std::move(resolver);
  return result;
}

topo::MultipathGraph MultilevelTracer::merge_by_aliases(
    const topo::MultipathGraph& ip_graph,
    const std::map<int, std::vector<alias::AliasSet>>& sets_by_hop) {
  // Representative address for every (hop, address).
  std::map<std::pair<int, net::Ipv4Address>, net::Ipv4Address> representative;
  for (const auto& [hop, sets] : sets_by_hop) {
    for (const auto& set : sets) {
      if (set.outcome != alias::Outcome::kAccept || set.members.size() < 2) {
        continue;
      }
      const auto rep =
          *std::min_element(set.members.begin(), set.members.end());
      for (const auto member : set.members) {
        representative[{hop, member}] = rep;
      }
    }
  }
  const auto rep_of = [&](int hop, net::Ipv4Address addr) {
    const auto it = representative.find({hop, addr});
    return it == representative.end() ? addr : it->second;
  };

  topo::MultipathGraph merged;
  std::map<std::pair<int, net::Ipv4Address>, topo::VertexId> ids;
  for (std::uint16_t h = 0; h < ip_graph.hop_count(); ++h) {
    merged.add_hop();
    for (const auto v : ip_graph.vertices_at(h)) {
      const auto rep = rep_of(h, ip_graph.vertex(v).addr);
      if (ids.find({h, rep}) == ids.end()) {
        ids[{h, rep}] = merged.add_vertex(h, rep);
      }
    }
  }
  for (std::uint16_t h = 0; h + 1 < ip_graph.hop_count(); ++h) {
    for (const auto v : ip_graph.vertices_at(h)) {
      for (const auto s : ip_graph.successors(v)) {
        merged.add_edge(
            ids.at({h, rep_of(h, ip_graph.vertex(v).addr)}),
            ids.at({h + 1, rep_of(h + 1, ip_graph.vertex(s).addr)}));
      }
    }
  }
  return merged;
}

}  // namespace mmlpt::core
