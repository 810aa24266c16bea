// Parameterised property tests: invariants swept across parameter grids.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "common/rng.h"
#include "core/stopping_points.h"
#include "core/validation.h"
#include "fakeroute/failure.h"
#include "net/packet.h"
#include "topology/generator.h"
#include "topology/metrics.h"
#include "topology/reference.h"
#include "topology/serialize.h"

namespace mmlpt {
namespace {

// ---------------------------------------------------------------------
// Stopping points: for every (epsilon, k), the computed n_k is the least
// n meeting the bound, and the miss probability is monotone in n and K.
class StoppingPointBound
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(StoppingPointBound, NkIsLeastSufficientN) {
  const auto [eps, k] = GetParam();
  const auto sp = core::StoppingPoints::from_epsilon(eps);
  const int n = sp.n(k);
  EXPECT_LE(core::StoppingPoints::miss_probability(n, k + 1), eps);
  EXPECT_GT(core::StoppingPoints::miss_probability(n - 1, k + 1), eps);
}

TEST_P(StoppingPointBound, MissProbabilityMonotoneInN) {
  const auto [eps, k] = GetParam();
  (void)eps;
  double prev = 1.0;
  for (int n = 1; n <= 40; ++n) {
    const double p = core::StoppingPoints::miss_probability(n, k + 1);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StoppingPointBound,
    ::testing::Combine(::testing::Values(0.1, 0.05, 0.01, 0.004, 0.001),
                       ::testing::Values(1, 2, 3, 5, 8, 13, 21)));

// ---------------------------------------------------------------------
// Exact failure DP vs the closed form for K = 2 across stopping points,
// and vs Monte Carlo for larger K.
class FailureDp : public ::testing::TestWithParam<int> {};

TEST_P(FailureDp, MatchesClosedFormK2) {
  const int n1 = GetParam();
  const int nk[] = {0, n1, n1 + 8};
  EXPECT_NEAR(fakeroute::vertex_failure_probability(2, nk),
              std::pow(0.5, n1 - 1), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FailureDp,
                         ::testing::Values(3, 4, 6, 8, 9, 12, 16));

class FailureMonteCarlo : public ::testing::TestWithParam<int> {};

TEST_P(FailureMonteCarlo, DpAgreesWithSimulation) {
  const int K = GetParam();
  const auto sp = core::StoppingPoints::from_epsilon(0.05);
  const auto table = sp.table(K + 1);
  const double dp = fakeroute::vertex_failure_probability(K, table);

  Rng rng(static_cast<std::uint64_t>(K) * 7919);
  const int runs = 60000;
  int failures = 0;
  for (int r = 0; r < runs; ++r) {
    int found = 1;
    int sent = 1;
    while (found < K) {
      if (sent >= table[static_cast<std::size_t>(found)]) {
        ++failures;
        break;
      }
      ++sent;
      if (rng.real() <
          static_cast<double>(K - found) / static_cast<double>(K)) {
        ++found;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(failures) / runs, dp,
              0.004 + 3 * std::sqrt(dp * (1 - dp) / runs));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FailureMonteCarlo,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

// ---------------------------------------------------------------------
// Wire round trips: UDP probes across TTL / port / payload grids.
class ProbeRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ProbeRoundTrip, FieldsSurviveSerialization) {
  const auto [ttl, port, payload] = GetParam();
  net::ProbeSpec spec;
  spec.src = net::Ipv4Address(192, 168, 3, 4);
  spec.dst = net::Ipv4Address(11, 22, 33, 44);
  spec.src_port = static_cast<std::uint16_t>(port);
  spec.ttl = static_cast<std::uint8_t>(ttl);
  spec.payload_bytes = static_cast<std::uint16_t>(payload);
  spec.ip_id = static_cast<std::uint16_t>(ttl * 131 + port);
  const auto parsed = net::parse_probe(net::build_udp_probe(spec));
  EXPECT_EQ(parsed.ip.ttl, ttl);
  EXPECT_EQ(parsed.udp.src_port, port);
  EXPECT_EQ(parsed.ip.identification, spec.ip_id);
  EXPECT_EQ(parsed.ip.total_length,
            net::kIpv4HeaderSize + net::kUdpHeaderSize + payload);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProbeRoundTrip,
    ::testing::Combine(::testing::Values(1, 32, 64, 255),
                       ::testing::Values(1024, 33434, 65535),
                       ::testing::Values(0, 12, 64)));

// ---------------------------------------------------------------------
// Reach probabilities sum to 1 per hop and serialization round-trips on
// every reference topology.
struct NamedTopology {
  const char* name;
  topo::MultipathGraph (*make)();
};

// Print the name, not the function's address: the printed value becomes
// part of the discovered test ID, which must not change from run to run.
void PrintTo(const NamedTopology& t, std::ostream* os) { *os << t.name; }

class ReferenceTopology : public ::testing::TestWithParam<NamedTopology> {};

TEST_P(ReferenceTopology, ProbabilitiesPartitionUnity) {
  const auto g = GetParam().make();
  const auto p = g.reach_probabilities();
  for (std::uint16_t h = 0; h < g.hop_count(); ++h) {
    double sum = 0.0;
    for (const auto v : g.vertices_at(h)) sum += p[v];
    EXPECT_NEAR(sum, 1.0, 1e-9) << "hop " << h;
  }
}

TEST_P(ReferenceTopology, SerializationRoundTrips) {
  const auto g = GetParam().make();
  EXPECT_TRUE(topo::same_topology(g, topo::deserialize(topo::serialize(g))));
}

TEST_P(ReferenceTopology, MdaDiscoversEverythingAtTightBound) {
  const auto g = GetParam().make();
  core::TraceConfig config;
  config.alpha = 0.01;
  config.max_branching = 60;
  const auto truth = core::plain_ground_truth(GetParam().make());
  const auto result = core::run_trace(truth, core::Algorithm::kMda, config,
                                      {}, 12345);
  EXPECT_TRUE(topo::same_topology(result.graph, g));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReferenceTopology,
    ::testing::Values(
        NamedTopology{"simplest_diamond", &topo::simplest_diamond},
        NamedTopology{"fig1_unmeshed", &topo::fig1_unmeshed},
        NamedTopology{"fig1_meshed", &topo::fig1_meshed},
        NamedTopology{"max_length_2_diamond", &topo::max_length_2_diamond},
        NamedTopology{"symmetric_diamond", &topo::symmetric_diamond},
        NamedTopology{"asymmetric_diamond", &topo::asymmetric_diamond},
        NamedTopology{"fig6_left", &topo::fig6_left},
        NamedTopology{"fig6_right", &topo::fig6_right}));

// ---------------------------------------------------------------------
// Eq. (1): the analytic meshing-miss probability matches a Monte Carlo
// simulation of the phi-probe test on the Fig. 1 meshed diamond.
class MeshingMissPhi : public ::testing::TestWithParam<int> {};

TEST_P(MeshingMissPhi, AnalyticMatchesSimulation) {
  const int phi = GetParam();
  const auto g = topo::fig1_meshed();
  const auto analytic = topo::meshing_miss_probability(g, 1, phi);
  ASSERT_TRUE(analytic.has_value());

  Rng rng(static_cast<std::uint64_t>(phi) * 104729);
  const int runs = 40000;
  int missed = 0;
  for (int r = 0; r < runs; ++r) {
    bool detected = false;
    for (int v = 0; v < 4 && !detected; ++v) {  // four 2-successor vertices
      int first = -1;
      for (int probe = 0; probe < phi; ++probe) {
        const int exit = static_cast<int>(rng.uniform(0, 1));
        if (first < 0) {
          first = exit;
        } else if (exit != first) {
          detected = true;
          break;
        }
      }
    }
    if (!detected) ++missed;
  }
  EXPECT_NEAR(static_cast<double>(missed) / runs, *analytic,
              0.003 + 3 * std::sqrt(*analytic / runs));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MeshingMissPhi, ::testing::Values(2, 3, 4));

// ---------------------------------------------------------------------
// Generator: every seed yields structurally valid worlds whose diamonds
// have coherent metrics.
class GeneratorSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeed, RoutesAlwaysValid) {
  topo::SurveyWorld world(topo::GeneratorConfig{}, 20, GetParam());
  for (int i = 0; i < 20; ++i) {
    const auto route = world.next_route();
    route.graph.validate();
    EXPECT_EQ(route.vertex_router.size(), route.graph.vertex_count());
    for (const auto& d : topo::extract_diamonds(route.graph)) {
      const auto m = topo::compute_metrics(route.graph, d);
      EXPECT_GE(m.max_width, 2);
      EXPECT_GE(m.max_length, 2);
      EXPECT_GE(m.meshed_hop_ratio, 0.0);
      EXPECT_LE(m.meshed_hop_ratio, 1.0);
      EXPECT_EQ(m.meshed, m.meshed_hop_ratio > 0.0);
      if (m.max_width_asymmetry == 0) {
        // Uniformity is exactly zero probability difference only for
        // symmetric wiring; asymmetry zero implies uniform here because
        // the generator wires evenly when not injecting asymmetry.
        EXPECT_LE(m.max_probability_difference, 0.51);
      }
    }
  }
}

TEST_P(GeneratorSeed, RouterGroundTruthConsistent) {
  topo::RouteGenerator gen(topo::GeneratorConfig{}, GetParam());
  for (int i = 0; i < 30; ++i) {
    const auto tmpl = gen.make_diamond();
    const auto merged = tmpl.truth.router_level_graph();
    // Router-level graph never has more vertices than IP level, and the
    // endpoints survive.
    EXPECT_LE(merged.vertex_count(), tmpl.truth.graph.vertex_count());
    EXPECT_EQ(merged.hop_count(), tmpl.truth.graph.hop_count());
    EXPECT_EQ(merged.vertices_at(0).size(), 1u);
    const auto sizes = tmpl.truth.router_sizes();
    std::size_t total = 0;
    for (const auto s : sizes) total += s;
    EXPECT_EQ(total, tmpl.truth.graph.vertex_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GeneratorSeed,
                         ::testing::Values(1, 17, 4242, 99991, 123456789));

// ---------------------------------------------------------------------
// MDA-Lite discovery holds its ground across loss rates on the simplest
// diamond (retries mask moderate loss).
class LiteUnderLoss : public ::testing::TestWithParam<double> {};

TEST_P(LiteUnderLoss, MostlyFullDiscovery) {
  fakeroute::SimConfig sim;
  sim.loss_prob = GetParam();
  const auto truth = core::plain_ground_truth(topo::simplest_diamond());
  int full = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto result =
        core::run_trace(truth, core::Algorithm::kMdaLite, {}, sim, seed);
    if (topo::same_topology(result.graph, truth.graph)) ++full;
  }
  EXPECT_GE(full, 9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LiteUnderLoss,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2));

}  // namespace
}  // namespace mmlpt
