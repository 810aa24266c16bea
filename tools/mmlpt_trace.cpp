// mmlpt_trace — the command-line Multilevel MDA-Lite Paris Traceroute.
//
// The tool the paper describes: a traceroute that discovers the full
// load-balanced topology (MDA-Lite, with MDA and single-flow modes) and,
// with --multilevel, resolves which interfaces belong to one router
// while tracing.
//
// `mmlpt_trace --help` lists invocation examples and the options.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "cli_common.h"
#include "common/flags.h"
#include "core/multilevel.h"
#include "core/trace_json.h"
#include "core/validation.h"
#include "fakeroute/simulator.h"
#include "orchestrator/stop_set.h"
#include "probe/raw_socket_network.h"
#include "probe/simulated_network.h"
#include "topology/generator.h"
#include "topology/reference.h"
#include "topology/serialize.h"

using namespace mmlpt;

namespace {

topo::MultipathGraph builtin_topology(const std::string& name) {
  if (name == "simplest") return topo::simplest_diamond();
  if (name == "fig1") return topo::fig1_unmeshed();
  if (name == "fig1-meshed") return topo::fig1_meshed();
  if (name == "wide") return topo::max_length_2_diamond();
  if (name == "symmetric") return topo::symmetric_diamond();
  if (name == "asymmetric") return topo::asymmetric_diamond();
  if (name == "meshed") return topo::meshed_diamond();
  throw ConfigError("unknown builtin topology '" + name +
                    "' (try: simplest fig1 fig1-meshed wide symmetric "
                    "asymmetric meshed)");
}

topo::GroundTruth load_ground_truth(const Flags& flags, net::Family family) {
  const auto seed = flags.get_uint("seed", 1);
  if (flags.has("topology")) {
    std::ifstream in(flags.get("topology", ""));
    if (!in) throw ConfigError("cannot open topology file");
    std::ostringstream text;
    text << in.rdbuf();
    auto truth = core::plain_ground_truth(topo::deserialize(text.str()));
    // The file's literals pick the family; an explicit flag must agree.
    if ((flags.has("family") || family == net::Family::kIpv6) &&
        truth.destination.family() != family) {
      throw ConfigError("--family disagrees with the topology file's "
                        "address family");
    }
    return truth;
  }
  if (flags.get_bool("generate", false)) {
    topo::GeneratorConfig config;
    config.family = family;
    topo::RouteGenerator generator(config, seed);
    return generator.make_route();
  }
  const auto name = flags.get("builtin", "fig1");
  auto graph = topo::prepend_source(builtin_topology(name),
                                    net::Ipv4Address(192, 168, 0, 1));
  if (family == net::Family::kIpv6) graph = topo::map_to_ipv6(graph);
  return core::plain_ground_truth(std::move(graph));
}

void print_text_trace(const core::TraceResult& result) {
  const auto& g = result.graph;
  for (std::uint16_t h = 0; h < g.hop_count(); ++h) {
    std::printf("%3d ", h);
    const auto vertices = g.vertices_at(h);
    if (vertices.empty()) {
      std::printf(" *\n");
      continue;
    }
    for (const auto v : vertices) {
      std::printf(" %s", g.vertex(v).addr.to_string().c_str());
    }
    std::printf("\n");
  }
  std::printf("# %llu packets%s%s%s\n",
              static_cast<unsigned long long>(result.packets),
              result.reached_destination ? "" : " (destination not reached)",
              result.switched_to_mda ? ", switched to full MDA" : "",
              result.stopped_on_hit ? ", stopped on stop-set hit" : "");
}

void print_text_multilevel(const core::MultilevelResult& result) {
  std::printf("== IP level ==\n");
  print_text_trace(result.trace);
  if (!result.alias_supported) {
    std::printf(
        "# alias resolution: unsupported-family (IPv6 has no IP-ID)\n");
  }
  std::printf("\n== router level ==\n");
  const auto& g = result.router_graph;
  for (std::uint16_t h = 0; h < g.hop_count(); ++h) {
    std::printf("%3d ", h);
    for (const auto v : g.vertices_at(h)) {
      std::printf(" %s", g.vertex(v).addr.to_string().c_str());
    }
    std::printf("\n");
  }
  for (const auto& [hop, sets] : result.final_round().sets_by_hop) {
    for (const auto& set : sets) {
      if (set.outcome != alias::Outcome::kAccept) continue;
      std::printf("# hop %d router:", hop);
      for (const auto a : set.members) {
        std::printf(" %s", a.to_string().c_str());
      }
      std::printf("\n");
    }
  }
  std::printf("# %llu packets total\n",
              static_cast<unsigned long long>(result.total_packets));
}

int run(const Flags& flags) {
  const net::Family family = tools::parse_family(flags);
  const core::Algorithm algorithm = tools::parse_algorithm(flags);
  auto trace_config = tools::parse_trace_config(flags);
  const auto stop_set_options = tools::parse_stop_set_options(flags);
  orchestrator::StopSetSession stop_set_session(
      stop_set_options.topology_cache, stop_set_options.consult);
  stop_set_session.configure(trace_config);
  tools::ObsSession obs(tools::parse_obs_options(flags));
  stop_set_session.instrument(obs.registry());

  const bool json = flags.get_bool("json", false);

  // Transport: raw sockets (--real) or the Fakeroute simulator.
  std::unique_ptr<probe::TransportQueue> network;
  std::unique_ptr<fakeroute::Simulator> simulator;
  probe::ProbeEngine::Config engine_config;
  topo::GroundTruth truth;
  if (flags.get_bool("real", false)) {
    engine_config.destination = net::IpAddress::parse_or_throw(
        flags.get("destination", ""));
    if (engine_config.destination.family() != family) {
      throw ConfigError("--destination family disagrees with --family");
    }
    engine_config.source =
        flags.has("source")
            ? net::IpAddress::parse_or_throw(flags.get("source", ""))
            : probe::route_source(engine_config.destination);
    if (engine_config.source.family() != family) {
      throw ConfigError("--source family disagrees with --family");
    }
    network = std::make_unique<probe::RawSocketNetwork>(
        probe::RawSocketNetwork::Config{.family = family}, obs.registry());
  } else {
    truth = load_ground_truth(flags, family);
    simulator = std::make_unique<fakeroute::Simulator>(
        truth, fakeroute::SimConfig{}, flags.get_uint("seed", 1));
    network = std::make_unique<probe::SimulatedNetwork>(*simulator);
    engine_config.source = truth.source;
    engine_config.destination = truth.destination;
  }
  engine_config.metrics = &obs.registry();
  probe::ProbeEngine engine(*network, engine_config);

  // The shared machine-parsable summary: transport, packet count, the
  // stop-set object when a cache is in use, and non-zero counters.
  const bool real = flags.get_bool("real", false);
  const auto print_summary = [&](std::uint64_t packets,
                                 std::uint64_t probes_saved,
                                 std::uint64_t traces_stopped) {
    tools::SummaryLine("mmlpt_trace")
        .field("transport", real ? "poll" : "sim")
        .field("packets", packets)
        .stop_set(stop_set_session, probes_saved, traces_stopped)
        .metrics(obs.registry())
        .print();
  };

  if (flags.get_bool("multilevel", false)) {
    core::MultilevelConfig config;
    config.trace = trace_config;
    config.rounds = tools::parse_rounds(flags);
    core::MultilevelTracer tracer(engine, config);
    const auto result = tracer.run();
    if (json) {
      std::printf("%s\n", core::multilevel_to_json(result).c_str());
    } else {
      print_text_multilevel(result);
    }
    print_summary(result.total_packets,
                  result.trace.probes_saved_by_stop_set,
                  result.trace.stopped_on_hit ? 1 : 0);
  } else {
    const auto result = core::run_tracer(engine, algorithm, trace_config);
    if (json) {
      std::printf("%s\n", core::trace_to_json(result).c_str());
    } else {
      print_text_trace(result);
    }
    print_summary(result.packets, result.probes_saved_by_stop_set,
                  result.stopped_on_hit ? 1 : 0);
  }
  stop_set_session.flush();
  obs.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tools::cli_main(tools::Tool::kTrace, argc, argv, run);
}
