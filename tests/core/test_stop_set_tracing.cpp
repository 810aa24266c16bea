// Doubletree stopping through the tracers: record-only mode is
// byte-identical to no stop set at all; a warm consulting run halts
// forward on a confirmed hop, runs the single-flow backward phase from
// the adaptive midpoint, accounts its savings against the destination's
// prior full-trace record, and never changes the union topology.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/trace_json.h"
#include "core/validation.h"
#include "orchestrator/stop_set.h"
#include "topology/generator.h"

namespace mmlpt::core {
namespace {

using orchestrator::SharedStopSet;

topo::GroundTruth random_route(std::uint64_t seed) {
  topo::RouteGenerator generator(topo::GeneratorConfig{}, seed);
  return generator.make_route();
}

/// Linear chain: source at hop 0, destination at TTL `length`. Every
/// packet count below is exact, so the Doubletree arithmetic is too.
topo::GroundTruth chain(int length) {
  topo::MultipathGraph g;
  topo::VertexId previous = topo::kInvalidVertex;
  for (int h = 0; h <= length; ++h) {
    g.add_hop();
    const auto v =
        g.add_vertex(static_cast<std::uint16_t>(h),
                     net::IpAddress(10, 0, 1, static_cast<std::uint8_t>(h + 1)));
    if (h > 0) g.add_edge(previous, v);
    previous = v;
  }
  return plain_ground_truth(std::move(g));
}

struct ColdRun {
  TraceResult result;
  store::TopologySnapshot snapshot;  ///< everything the full probe saw
  std::uint64_t digest = 0;
};

/// Full-probe pass in record-only mode: warms a stop set without
/// changing anything about the trace itself.
ColdRun cold_run(const topo::GroundTruth& truth, Algorithm algorithm,
                 std::uint64_t seed) {
  SharedStopSet set;
  TraceConfig config;
  config.stop_set = &set;
  config.consult_stop_set = false;
  ColdRun cold;
  cold.result = run_trace(truth, algorithm, config, {}, seed);
  cold.snapshot = set.delta();  // unseeded: the union is the delta
  cold.digest = set.union_digest();
  return cold;
}

TEST(StopSetTracing, RecordOnlyOutputIsByteIdenticalToDisabled) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto truth = random_route(seed);
    for (const auto algorithm :
         {Algorithm::kSingleFlow, Algorithm::kMdaLite, Algorithm::kMda}) {
      const auto baseline =
          run_trace(truth, algorithm, {}, {}, seed);

      SharedStopSet set;
      TraceConfig config;
      config.stop_set = &set;
      config.consult_stop_set = false;
      const auto recorded = run_trace(truth, algorithm, config, {}, seed);

      EXPECT_EQ(trace_to_json(recorded), trace_to_json(baseline))
          << "seed " << seed << " algorithm " << static_cast<int>(algorithm);
      EXPECT_FALSE(recorded.stop_set_active);
      EXPECT_EQ(recorded.probes_saved_by_stop_set, 0u);
      EXPECT_GT(set.pending_hop_count(), 0u)
          << "record-only mode must still feed the cache";
    }
  }
}

TEST(StopSetTracing, WarmSingleFlowStopsBothWaysFromTheMidpoint) {
  const auto truth = chain(10);
  const auto cold = cold_run(truth, Algorithm::kSingleFlow, 1);
  ASSERT_TRUE(cold.result.reached_destination);
  EXPECT_EQ(cold.result.packets, 10u);
  ASSERT_EQ(cold.snapshot.destinations.size(), 1u);
  EXPECT_EQ(cold.snapshot.destinations[0].record.distance, 10);

  SharedStopSet warm_set;
  warm_set.seed(cold.snapshot);
  EXPECT_EQ(warm_set.midpoint_ttl(), 5);  // half the destination distance

  TraceConfig config;
  config.stop_set = &warm_set;
  config.consult_stop_set = true;
  const auto warm = run_trace(truth, Algorithm::kSingleFlow, config, {}, 1);

  // One forward probe at TTL 5 hits the stop set; one backward probe at
  // TTL 4 hits it again. Two packets replace ten.
  EXPECT_TRUE(warm.stopped_on_hit);
  EXPECT_FALSE(warm.reached_destination);
  EXPECT_TRUE(warm.stop_set_active);
  EXPECT_EQ(warm.packets, 2u);
  EXPECT_EQ(warm.probes_saved_by_stop_set, 8u);
  EXPECT_EQ(warm.graph.vertices_at(5).size(), 1u);
  EXPECT_EQ(warm.graph.vertices_at(4).size(), 1u);

  // The warm run re-observed only hops the cold run already confirmed:
  // the fleet-wide union topology is exactly the full-probe topology.
  EXPECT_EQ(warm_set.union_digest(), cold.digest);
}

TEST(StopSetTracing, WarmHopByHopTracersHaltForwardOnConfirmedHops) {
  const auto truth = chain(10);
  for (const auto algorithm : {Algorithm::kMda, Algorithm::kMdaLite}) {
    const auto cold = cold_run(truth, algorithm, 2);
    ASSERT_TRUE(cold.result.reached_destination);

    SharedStopSet warm_set;
    warm_set.seed(cold.snapshot);
    TraceConfig config;
    config.stop_set = &warm_set;
    config.consult_stop_set = true;
    const auto warm = run_trace(truth, algorithm, config, {}, 2);

    EXPECT_TRUE(warm.stopped_on_hit)
        << "algorithm " << static_cast<int>(algorithm);
    EXPECT_TRUE(warm.stop_set_active);
    EXPECT_LT(warm.packets, cold.result.packets);
    EXPECT_EQ(warm.probes_saved_by_stop_set,
              cold.result.packets - warm.packets);
    EXPECT_EQ(warm_set.union_digest(), cold.digest);
  }
}

TEST(StopSetTracing, WarmRunsStayWindowInvariant) {
  const auto truth = chain(12);
  for (const auto algorithm :
       {Algorithm::kSingleFlow, Algorithm::kMdaLite, Algorithm::kMda}) {
    const auto cold = cold_run(truth, algorithm, 3);

    const auto warm_json = [&](int window) {
      SharedStopSet warm_set;
      warm_set.seed(cold.snapshot);
      TraceConfig config;
      config.window = window;
      config.stop_set = &warm_set;
      config.consult_stop_set = true;
      const auto result = run_trace(truth, algorithm, config, {}, 3);
      // Only CONSUMED probes feed the cache, so the recorded delta is as
      // window-invariant as the trace output.
      return std::pair(trace_to_json(result), warm_set.delta().hops);
    };

    const auto baseline = warm_json(1);
    for (const int window : {4, 32}) {
      EXPECT_EQ(warm_json(window), baseline)
          << "algorithm " << static_cast<int>(algorithm) << " window "
          << window;
    }
  }
}

TEST(StopSetTracing, FinalizeAccountsSavingsOnlyWhenConsultingAndStopped) {
  const net::IpAddress dest(10, 9, 9, 9);
  SharedStopSet set;
  store::TopologySnapshot seed;
  seed.destinations.push_back({dest, {10, 100}});
  set.seed(seed);

  TraceConfig config;
  config.stop_set = &set;
  config.consult_stop_set = true;

  TraceResult stopped;
  stopped.packets = 40;
  stopped.stopped_on_hit = true;
  finalize_stop_set(config, dest, 0, stopped);
  EXPECT_TRUE(stopped.stop_set_active);
  EXPECT_EQ(stopped.probes_saved_by_stop_set, 60u);

  // A stopped trace that cost MORE than the prior record saves nothing.
  TraceResult expensive;
  expensive.packets = 150;
  expensive.stopped_on_hit = true;
  finalize_stop_set(config, dest, 0, expensive);
  EXPECT_EQ(expensive.probes_saved_by_stop_set, 0u);

  // Record-only mode never claims savings and never marks the envelope.
  config.consult_stop_set = false;
  TraceResult record_only;
  record_only.packets = 40;
  record_only.stopped_on_hit = true;
  finalize_stop_set(config, dest, 0, record_only);
  EXPECT_FALSE(record_only.stop_set_active);
  EXPECT_EQ(record_only.probes_saved_by_stop_set, 0u);

  // A full trace feeds its own record back for future runs; a stopped
  // trace must not decay the baseline.
  TraceResult full;
  full.packets = 80;
  full.reached_destination = true;
  finalize_stop_set(config, net::IpAddress(10, 9, 9, 10), 9, full);
  const auto delta = set.delta();
  ASSERT_EQ(delta.destinations.size(), 1u);
  EXPECT_EQ(delta.destinations[0].addr, net::IpAddress(10, 9, 9, 10));
  EXPECT_EQ(delta.destinations[0].record,
            (DestinationRecord{9, 80}));
}

TEST(StopSetTracing, EmptyHopNeverSatisfiesTheHaltCondition) {
  SharedStopSet set;
  store::TopologySnapshot seed;
  seed.hops.push_back({net::IpAddress(10, 0, 0, 1), 3});
  set.seed(seed);
  EXPECT_FALSE(all_in_stop_set(set, {}, 3));
  EXPECT_TRUE(all_in_stop_set(set, {net::IpAddress(10, 0, 0, 1)}, 3));
  EXPECT_FALSE(all_in_stop_set(
      set, {net::IpAddress(10, 0, 0, 1), net::IpAddress(10, 0, 0, 2)}, 3));
}

}  // namespace
}  // namespace mmlpt::core
