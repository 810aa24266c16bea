// Quickstart: trace a load-balanced topology with MDA-Lite Paris
// Traceroute and print the multipath view, hop by hop.
//
// By default the probe stream runs against an in-process Fakeroute
// simulator (no privileges needed). On a host with CAP_NET_RAW and
// Internet access, pass --real --destination <ip> to use raw sockets —
// the probing engine and algorithms are identical either way.
#include <cstdio>
#include <memory>

#include "common/flags.h"
#include "core/mda_lite.h"
#include "core/validation.h"
#include "fakeroute/simulator.h"
#include "probe/raw_socket_network.h"
#include "probe/simulated_network.h"
#include "topology/reference.h"

using namespace mmlpt;

namespace {

void print_trace(const core::TraceResult& result) {
  const auto& g = result.graph;
  for (std::uint16_t h = 0; h < g.hop_count(); ++h) {
    std::printf("%3d  ", h);
    const auto vertices = g.vertices_at(h);
    if (vertices.empty()) {
      std::printf("*\n");
      continue;
    }
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      if (i > 0) std::printf("     ");
      const auto v = vertices[i];
      std::printf("%-16s", g.vertex(v).addr.to_string().c_str());
      const auto succ = g.successors(v);
      if (!succ.empty()) {
        std::printf(" ->");
        for (const auto s : succ) {
          std::printf(" %s", g.vertex(s).addr.to_string().c_str());
        }
      }
      std::printf("\n");
    }
  }
  std::printf("\npackets sent: %llu   reached destination: %s%s\n",
              static_cast<unsigned long long>(result.packets),
              result.reached_destination ? "yes" : "no",
              result.switched_to_mda ? "   (switched to full MDA)" : "");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  try {
    if (flags.get_bool("real", false)) {
      // Real-network mode: requires root; traces toward --destination.
      const auto destination = net::Ipv4Address::parse_or_throw(
          flags.get("destination", "192.0.2.1"));
      const auto source =
          flags.has("source")
              ? net::Ipv4Address::parse_or_throw(flags.get("source", ""))
              : probe::route_source(destination);
      obs::MetricsRegistry registry;
      probe::RawSocketNetwork network({}, registry);
      probe::ProbeEngine::Config config;
      config.source = source;
      config.destination = destination;
      probe::ProbeEngine engine(network, config);
      core::MdaLiteTracer tracer(engine, {});
      print_trace(tracer.run());
      return 0;
    }

    // Simulated mode: the Fig. 1 unmeshed diamond behind a vantage point.
    std::printf("tracing a simulated Fig. 1 diamond (4-wide, unmeshed)\n\n");
    const auto truth = core::plain_ground_truth(topo::prepend_source(
        topo::fig1_unmeshed(), net::Ipv4Address(192, 168, 0, 1)));
    fakeroute::Simulator simulator(truth, {}, flags.get_uint("seed", 1));
    probe::SimulatedNetwork network(simulator);
    probe::ProbeEngine::Config config;
    config.source = truth.source;
    config.destination = truth.destination;
    probe::ProbeEngine engine(network, config);
    core::MdaLiteTracer tracer(engine, {});
    print_trace(tracer.run());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
