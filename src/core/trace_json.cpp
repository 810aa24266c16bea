#include "core/trace_json.h"

#include "common/json.h"

namespace mmlpt::core {

namespace {

void emit_graph(JsonWriter& w, const topo::MultipathGraph& graph) {
  w.begin_object();
  w.key("hop_count");
  w.value(static_cast<std::uint64_t>(graph.hop_count()));
  w.key("vertex_count");
  w.value(static_cast<std::uint64_t>(graph.vertex_count()));
  w.key("edge_count");
  w.value(static_cast<std::uint64_t>(graph.edge_count()));
  w.key("hops");
  w.begin_array();
  for (std::uint16_t h = 0; h < graph.hop_count(); ++h) {
    w.begin_array();
    for (const auto v : graph.vertices_at(h)) {
      w.begin_object();
      w.key("addr");
      const auto addr = graph.vertex(v).addr;
      if (addr.is_unspecified()) {
        w.value_null();
      } else {
        w.value(addr.to_string());
      }
      w.key("successors");
      w.begin_array();
      for (const auto s : graph.successors(v)) {
        w.value(graph.vertex(s).addr.to_string());
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

void emit_outcome(JsonWriter& w, alias::Outcome outcome) {
  switch (outcome) {
    case alias::Outcome::kAccept: w.value("accept"); break;
    case alias::Outcome::kReject: w.value("reject"); break;
    case alias::Outcome::kUnable: w.value("unable"); break;
  }
}

}  // namespace

std::string trace_to_json(const TraceResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("packets");
  w.value(result.packets);
  w.key("reached_destination");
  w.value(result.reached_destination);
  w.key("switched_to_mda");
  w.value(result.switched_to_mda);
  w.key("meshing_test_probes");
  w.value(result.meshing_test_probes);
  w.key("node_control_probes");
  w.value(result.node_control_probes);
  w.key("graph");
  emit_graph(w, result.graph);
  w.key("discovery_events");
  w.begin_array();
  for (const auto& e : result.events) {
    w.begin_object();
    w.key("packets");
    w.value(e.packets);
    w.key("kind");
    w.value(e.is_edge ? "edge" : "vertex");
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).take();
}

namespace {

std::string envelope_fields(std::uint64_t probes_sent, std::uint64_t saved) {
  std::string fields = "\"probes_sent\":";
  fields += std::to_string(probes_sent);
  fields += ",\"probes_saved_by_stop_set\":";
  fields += std::to_string(saved);
  return fields;
}

}  // namespace

std::string stop_set_envelope_fields(const TraceResult& result) {
  if (!result.stop_set_active) return {};
  return envelope_fields(result.packets, result.probes_saved_by_stop_set);
}

std::string stop_set_envelope_fields(const MultilevelResult& result) {
  if (!result.trace.stop_set_active) return {};
  return envelope_fields(result.total_packets,
                         result.trace.probes_saved_by_stop_set);
}

std::string multilevel_to_json(const MultilevelResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("total_packets");
  w.value(result.total_packets);
  if (!result.alias_supported) {
    // IPv6 has no IP-ID header field for the MBT; the key is only
    // emitted in the degraded case so v4 output stays byte-stable.
    w.key("alias");
    w.value("unsupported-family");
  }
  w.key("ip_level");
  emit_graph(w, result.trace.graph);
  w.key("router_level");
  emit_graph(w, result.router_graph);
  w.key("rounds");
  w.begin_array();
  for (const auto& round : result.rounds) {
    w.begin_object();
    w.key("packets");
    w.value(round.packets);
    w.key("alias_sets");
    w.begin_array();
    for (const auto& [hop, sets] : round.sets_by_hop) {
      for (const auto& set : sets) {
        w.begin_object();
        w.key("hop");
        w.value(static_cast<std::int64_t>(hop));
        w.key("outcome");
        emit_outcome(w, set.outcome);
        w.key("members");
        w.begin_array();
        for (const auto addr : set.members) {
          w.value(addr.to_string());
        }
        w.end_array();
        w.end_object();
      }
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).take();
}

}  // namespace mmlpt::core
