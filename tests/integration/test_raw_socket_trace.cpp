// A whole trace through the kernel transport: MDA-Lite over a
// RawSocketNetwork on loopback. The destination is a closed UDP port on
// 127.0.0.1, which the kernel answers at the first TTL with ICMP
// port-unreachable, so the expected topology is exact: the source, then
// the destination one hop out. The probes leave from 127.0.0.2 (also
// local on Linux's 127/8 loopback) because a trace graph holds each
// address once: with a source equal to the destination, hop 1 would be
// dropped as a repeat of hop 0. Needs CAP_NET_RAW; without it the test SKIPS visibly.
//
// RouteSource.* pin the default source of `mmlpt_trace --real`: the
// address the kernel's route lookup picks, read from a connected UDP
// socket. Those need no privilege.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common/error.h"
#include "core/validation.h"
#include "obs/metrics.h"
#include "probe/raw_socket_network.h"

namespace mmlpt {
namespace {

struct LoopbackTrace {
  core::TraceResult result;
  std::uint64_t probes_sent = 0;  ///< the backend's own count
};

TEST(RawSocketTrace, LoopbackMdaLiteIsExactAndWindowInvariant) {
  const auto source = net::Ipv4Address(127, 0, 0, 2);
  const auto destination = net::Ipv4Address(127, 0, 0, 1);
  LoopbackTrace traces[2];
  const int windows[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    obs::MetricsRegistry registry;
    std::unique_ptr<probe::RawSocketNetwork> network;
    try {
      network = std::make_unique<probe::RawSocketNetwork>(
          probe::RawSocketNetwork::Config{}, registry);
    } catch (const SystemError& e) {
      GTEST_SKIP() << "raw sockets unavailable (needs CAP_NET_RAW): "
                   << e.what();
    }
    core::TraceConfig config;
    config.window = windows[i];
    probe::ProbeEngine engine(
        *network, {.source = source, .destination = destination});
    traces[i].result =
        core::run_tracer(engine, core::Algorithm::kMdaLite, config);
    traces[i].probes_sent =
        registry
            .counter("mmlpt_transport_probes_sent_total", "",
                     {{"transport", "poll"}})
            ->value();
  }

  topo::MultipathGraph expected;
  expected.add_hop();
  expected.add_hop();
  expected.add_edge(expected.add_vertex(0, source),
                    expected.add_vertex(1, destination));
  for (int i = 0; i < 2; ++i) {
    const auto& result = traces[i].result;
    SCOPED_TRACE("window " + std::to_string(windows[i]));
    EXPECT_TRUE(result.reached_destination);
    EXPECT_TRUE(topo::same_topology(result.graph, expected))
        << result.graph.to_string();
    EXPECT_GT(result.packets, 0u);
    EXPECT_EQ(traces[i].probes_sent, result.packets);
  }
  EXPECT_TRUE(topo::same_topology(traces[0].result.graph,
                                  traces[1].result.graph));
  EXPECT_EQ(traces[0].result.packets, traces[1].result.packets);
}

TEST(RouteSource, LoopbackV4IsAnsweredFrom127001) {
  const auto loopback = net::Ipv4Address(127, 0, 0, 1);
  EXPECT_EQ(probe::route_source(loopback), loopback);
  EXPECT_EQ(probe::route_source(net::Ipv4Address(127, 0, 0, 2)), loopback);
}

TEST(RouteSource, LoopbackIpv6IsAnsweredFromItself) {
  const auto loopback = net::IpAddress::parse_or_throw("::1");
  net::IpAddress source;
  try {
    source = probe::route_source(loopback);
  } catch (const SystemError& e) {
    GTEST_SKIP() << "::1 unavailable on this host: " << e.what();
  }
  EXPECT_EQ(source, loopback);
}

}  // namespace
}  // namespace mmlpt
