// Window-size invariance: the probing pipeline's central contract. Every
// tracer assembles rounds of probes its stopping rule has already
// committed to, so the discovered topology, the packet accounting (totals
// AND per-event discovery stamps, which trace_to_json serialises) and
// every stopping-rule decision are identical for every window size —
// batching collapses RTT waits, never changes what is sent or learned.
//
// The one caveat lives at the alias level: velocity-driven IP-ID counters
// advance with virtual time, so probing faster genuinely samples
// different IP-ID *values* (correct measurement behaviour, not an
// algorithmic divergence). The IP level and the packet accounting are
// asserted bitwise on fully random router models; the full multilevel
// JSON — alias sets included — is asserted bitwise on sequence-driven
// (zero-velocity) routers, where the evidence depends only on reply
// order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alias/direct_prober.h"
#include "core/multilevel.h"
#include "core/trace_json.h"
#include "core/validation.h"
#include "fakeroute/simulator.h"
#include "orchestrator/rate_limiter.h"
#include "orchestrator/throttled_network.h"
#include "probe/simulated_network.h"
#include "topology/generator.h"

namespace mmlpt::core {
namespace {

constexpr int kWindows[] = {1, 4, 32};

topo::GroundTruth random_route(std::uint64_t seed) {
  topo::RouteGenerator generator(topo::GeneratorConfig{}, seed);
  return generator.make_route();
}

/// Counters advancing purely by reply order: alias evidence becomes
/// timing-independent and the full multilevel output must be bitwise
/// window-invariant.
topo::GroundTruth sequence_driven(topo::GroundTruth truth) {
  for (auto& router : truth.routers) router.ip_id_velocity = 0.0;
  return truth;
}

std::string traced_json(const topo::GroundTruth& truth, Algorithm algorithm,
                        int window, std::uint64_t seed) {
  TraceConfig config;
  config.window = window;
  return trace_to_json(run_trace(truth, algorithm, config, {}, seed));
}

MultilevelResult run_multilevel(const topo::GroundTruth& truth, int window,
                                std::uint64_t seed) {
  fakeroute::Simulator simulator(truth, {}, seed);
  probe::SimulatedNetwork network(simulator);
  probe::ProbeEngine::Config engine_config;
  engine_config.source = truth.source;
  engine_config.destination = truth.destination;
  probe::ProbeEngine engine(network, engine_config);
  MultilevelConfig config;
  config.trace.window = window;
  config.rounds = 3;
  return MultilevelTracer(engine, config).run();
}

TEST(WindowInvariance, AllTracersProduceIdenticalJsonOnRandomTopologies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto truth = random_route(seed);
    for (const auto algorithm :
         {Algorithm::kSingleFlow, Algorithm::kMdaLite, Algorithm::kMda}) {
      const auto baseline = traced_json(truth, algorithm, 1, seed);
      for (const int window : kWindows) {
        EXPECT_EQ(traced_json(truth, algorithm, window, seed), baseline)
            << "seed " << seed << " algorithm "
            << static_cast<int>(algorithm) << " window " << window;
      }
    }
  }
}

TEST(WindowInvariance, MultilevelIpLevelAndAccountingOnRandomTopologies) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto truth = random_route(seed);
    const auto baseline = run_multilevel(truth, 1, seed);
    for (const int window : kWindows) {
      const auto result = run_multilevel(truth, window, seed);
      EXPECT_EQ(trace_to_json(result.trace), trace_to_json(baseline.trace))
          << "seed " << seed << " window " << window;
      EXPECT_EQ(result.total_packets, baseline.total_packets);
      ASSERT_EQ(result.rounds.size(), baseline.rounds.size());
      for (std::size_t r = 0; r < result.rounds.size(); ++r) {
        EXPECT_EQ(result.rounds[r].packets, baseline.rounds[r].packets)
            << "seed " << seed << " window " << window << " round " << r;
      }
    }
  }
}

TEST(WindowInvariance, FullMultilevelJsonOnSequenceDrivenRouters) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto truth = sequence_driven(random_route(seed));
    const auto baseline = multilevel_to_json(run_multilevel(truth, 1, seed));
    for (const int window : kWindows) {
      EXPECT_EQ(multilevel_to_json(run_multilevel(truth, window, seed)),
                baseline)
          << "seed " << seed << " window " << window;
    }
  }
}

TEST(WindowInvariance, DirectProberOutcomesOnSequenceDrivenRouters) {
  const auto truth = sequence_driven(random_route(3));
  // Candidate set: every responding interface of one multi-vertex hop.
  std::vector<net::Ipv4Address> addrs;
  const auto& g = truth.graph;
  for (std::uint16_t h = 1; h + 1 < g.hop_count(); ++h) {
    std::vector<net::Ipv4Address> hop_addrs;
    for (const auto v : g.vertices_at(h)) {
      if (!g.vertex(v).addr.is_unspecified()) {
        hop_addrs.push_back(g.vertex(v).addr);
      }
    }
    if (hop_addrs.size() >= 2) {
      addrs = std::move(hop_addrs);
      break;
    }
  }
  ASSERT_GE(addrs.size(), 2u) << "route 3 should contain a diamond";

  const auto collect = [&](int window) {
    fakeroute::Simulator simulator(truth, {}, 9);
    probe::SimulatedNetwork network(simulator);
    probe::ProbeEngine::Config engine_config;
    engine_config.source = truth.source;
    engine_config.destination = truth.destination;
    probe::ProbeEngine engine(network, engine_config);
    alias::DirectProber::Config config;
    config.rounds = 2;
    config.samples_per_round = 10;
    config.window = window;
    return alias::DirectProber(engine, config).collect(addrs);
  };

  const auto baseline = collect(1).classify_set(addrs);
  for (const int window : kWindows) {
    EXPECT_EQ(collect(window).classify_set(addrs), baseline)
        << "window " << window;
  }
}

TEST(WindowInvariance, WindowedTraceComposesWithThrottledNetwork) {
  const auto truth = random_route(5);
  TraceConfig serial;
  const auto baseline =
      trace_to_json(run_trace(truth, Algorithm::kMdaLite, serial, {}, 5));

  fakeroute::Simulator simulator(truth, {}, 5);
  probe::SimulatedNetwork network(simulator);
  orchestrator::RateLimiter limiter(1e9, 64);  // fast enough for a test
  orchestrator::ThrottledNetwork throttled(network, limiter);
  TraceConfig windowed;
  windowed.window = 16;
  probe::ProbeEngine engine(throttled, {.source = truth.source,
                                        .destination = truth.destination});
  const auto result = run_tracer(engine, Algorithm::kMdaLite, windowed);
  EXPECT_EQ(trace_to_json(result), baseline);
}

}  // namespace
}  // namespace mmlpt::core
