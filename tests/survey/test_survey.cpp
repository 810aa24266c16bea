#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "orchestrator/stop_set.h"
#include "survey/accounting.h"
#include "survey/alias_eval.h"
#include "survey/evaluation.h"
#include "survey/ip_survey.h"
#include "survey/route_feeder.h"
#include "survey/router_survey.h"
#include "topology/reference.h"

namespace mmlpt::survey {
namespace {

TEST(Accounting, MeasuredVsDistinct) {
  DiamondAccounting acc(2);
  const auto g = topo::simplest_diamond();
  acc.record_all(g);
  acc.record_all(g);  // same key: measured twice, distinct once
  EXPECT_EQ(acc.measured().total, 2u);
  EXPECT_EQ(acc.distinct().total, 1u);
  EXPECT_EQ(acc.measured().max_width.count(2), 2u);
  EXPECT_EQ(acc.distinct().max_width.count(2), 1u);
}

TEST(Accounting, ClassifiesShapes) {
  DiamondAccounting acc(2);
  acc.record_all(topo::fig1_meshed());
  acc.record_all(topo::fig6_left());
  const auto& d = acc.distinct();
  EXPECT_EQ(d.total, 2u);
  EXPECT_EQ(d.meshed, 1u);
  EXPECT_EQ(d.asymmetric, 1u);
  EXPECT_EQ(d.asymmetric_unmeshed, 1u);
  EXPECT_FALSE(d.meshing_miss.empty());
  EXPECT_FALSE(d.probability_difference.empty());
}

TEST(IpSurvey, SmallSurveyRuns) {
  IpSurveyConfig config;
  config.routes = 30;
  config.distinct_diamonds = 10;
  config.seed = 5;
  const auto result = run_ip_survey(config);
  EXPECT_EQ(result.routes_traced, 30u);
  EXPECT_GT(result.routes_with_diamonds, 20u);
  EXPECT_GT(result.accounting.measured().total,
            result.accounting.distinct().total);
  EXPECT_GT(result.total_packets, 0u);
}

TEST(IpSurvey, DistinctBoundedByWorldSize) {
  IpSurveyConfig config;
  config.routes = 40;
  config.distinct_diamonds = 5;
  const auto result = run_ip_survey(config);
  // At most 5 distinct templates exist in the world.
  EXPECT_LE(result.accounting.distinct().total, 5u);
}

TEST(RouteFeeder, LazyGenerationMatchesTheSerialSequence) {
  const topo::GeneratorConfig generator;
  topo::SurveyWorld direct(generator, 6, 42);
  std::vector<std::uint32_t> expected;
  for (int i = 0; i < 10; ++i) {
    expected.push_back(direct.next_route().destination.value());
  }

  topo::SurveyWorld lazy(generator, 6, 42);
  RouteFeeder feeder(lazy, 10);
  // Out-of-order first access still yields the in-order sequence: asking
  // for route 7 generates 0..7 behind the scenes.
  EXPECT_EQ(feeder.route(7).destination.value(), expected[7]);
  EXPECT_EQ(feeder.route(2).destination.value(), expected[2]);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(feeder.route(i).destination.value(), expected[i]);
  }
}

TEST(RouteFeeder, ReleaseShrinksTheLiveWindow) {
  const topo::GeneratorConfig generator;
  topo::SurveyWorld world(generator, 4, 7);
  RouteFeeder feeder(world, 8);
  EXPECT_EQ(feeder.live(), 0u);
  (void)feeder.route(3);  // generates 0..3
  EXPECT_EQ(feeder.live(), 4u);
  feeder.release(0);
  feeder.release(1);
  EXPECT_EQ(feeder.live(), 2u);
  (void)feeder.route(7);
  EXPECT_EQ(feeder.live(), 6u);
  EXPECT_EQ(feeder.count(), 8u);
}

TEST(Evaluation, VariantsBehaveAsExpected) {
  EvaluationConfig config;
  config.pairs = 12;
  config.distinct_diamonds = 8;
  config.seed = 3;
  const auto result = run_evaluation(config);
  ASSERT_EQ(result.pairs.size(), 12u);

  // Single flow discovers far less and sends far fewer packets.
  EXPECT_LT(result.aggregate_vertex_ratio(Variant::kSingleFlow), 0.95);
  EXPECT_LT(result.aggregate_edge_ratio(Variant::kSingleFlow),
            result.aggregate_vertex_ratio(Variant::kSingleFlow));
  EXPECT_LT(result.aggregate_packet_ratio(Variant::kSingleFlow), 0.2);

  // The MDA-Lite discovers about as much as the second MDA run.
  EXPECT_NEAR(result.aggregate_vertex_ratio(Variant::kMdaLitePhi2), 1.0,
              0.05);
  // ... while saving packets on average.
  EXPECT_LT(result.aggregate_packet_ratio(Variant::kMdaLitePhi2), 1.0);

  // First MDA against itself is exactly 1.
  EXPECT_DOUBLE_EQ(result.aggregate_vertex_ratio(Variant::kMda1), 1.0);
  EXPECT_DOUBLE_EQ(result.aggregate_packet_ratio(Variant::kMda1), 1.0);
}

TEST(Evaluation, RatioCdfHasOneEntryPerPair) {
  EvaluationConfig config;
  config.pairs = 6;
  config.distinct_diamonds = 4;
  const auto result = run_evaluation(config);
  const auto cdf =
      result.ratio_cdf(Variant::kMdaLitePhi2, &PairOutcome::packet_ratio);
  EXPECT_EQ(cdf.size(), 6u);
}

TEST(RouterSurvey, ClassifyResolutionCases) {
  const auto ip = topo::simplest_diamond();
  const topo::Diamond d{0, 2};

  // No change.
  EXPECT_EQ(classify_resolution(ip, ip, d),
            topo::ResolutionClass::kNoChange);

  // One path: middle hop collapses.
  topo::MultipathGraph collapsed;
  collapsed.add_hop();
  collapsed.add_hop();
  collapsed.add_hop();
  const auto a = collapsed.add_vertex(0, topo::reference_addr(1, 0, 0));
  const auto b = collapsed.add_vertex(1, topo::reference_addr(1, 1, 0));
  const auto c = collapsed.add_vertex(2, topo::reference_addr(1, 2, 0));
  collapsed.add_edge(a, b);
  collapsed.add_edge(b, c);
  EXPECT_EQ(classify_resolution(ip, collapsed, d),
            topo::ResolutionClass::kOnePath);
}

TEST(RouterSurvey, ClassifySingleVsMultipleSmaller) {
  // Length-4 diamond, widths 1,4,4,4,1.
  topo::MultipathGraph ip;
  for (int h = 0; h < 5; ++h) ip.add_hop();
  std::vector<std::vector<topo::VertexId>> ids(5);
  int next = 1;
  for (int h = 0; h < 5; ++h) {
    const int w = (h == 0 || h == 4) ? 1 : 4;
    for (int i = 0; i < w; ++i) {
      ids[h].push_back(ip.add_vertex(static_cast<std::uint16_t>(h),
                                     net::Ipv4Address(10, 7, h, next++)));
    }
  }
  // (Edges are irrelevant to the width-based classification; skip them.)
  const topo::Diamond d{0, 4};

  // Merge the middle hop into 2: still one (smaller) diamond.
  topo::MultipathGraph smaller;
  for (int h = 0; h < 5; ++h) smaller.add_hop();
  next = 1;
  for (int h = 0; h < 5; ++h) {
    const int w = (h == 0 || h == 4) ? 1 : (h == 2 ? 2 : 4);
    for (int i = 0; i < w; ++i) {
      (void)smaller.add_vertex(static_cast<std::uint16_t>(h),
                               net::Ipv4Address(10, 8, h, next++));
    }
  }
  EXPECT_EQ(classify_resolution(ip, smaller, d),
            topo::ResolutionClass::kSingleSmallerDiamond);

  // Collapse ONLY the middle hop to 1: splits into two diamonds.
  topo::MultipathGraph split;
  for (int h = 0; h < 5; ++h) split.add_hop();
  next = 1;
  for (int h = 0; h < 5; ++h) {
    const int w = (h == 0 || h == 4 || h == 2) ? 1 : 4;
    for (int i = 0; i < w; ++i) {
      (void)split.add_vertex(static_cast<std::uint16_t>(h),
                             net::Ipv4Address(10, 9, h, next++));
    }
  }
  EXPECT_EQ(classify_resolution(ip, split, d),
            topo::ResolutionClass::kMultipleSmallerDiamonds);
}

TEST(RouterSurvey, SmallRouterSurveyRuns) {
  RouterSurveyConfig config;
  config.routes = 10;
  config.distinct_diamonds = 6;
  config.multilevel.rounds = 3;
  config.seed = 11;
  const auto result = run_router_survey(config);
  EXPECT_EQ(result.routes_traced, 10u);
  EXPECT_GT(result.unique_diamonds, 0u);
  // Every unique diamond lands in exactly one class.
  std::uint64_t classified = 0;
  for (const auto& [cls, count] : result.resolution_counts) {
    classified += count;
  }
  EXPECT_EQ(classified, result.unique_diamonds);
  EXPECT_EQ(result.ip_width.total(), result.unique_diamonds);
}

/// Run a survey against a stop set warmed by a record-only run of the
/// same world, and require the stop-set counters in its registry to match
/// the survey's own non-zero totals. `trace` is `config`'s trace
/// configuration.
template <typename Config, typename Run>
void expect_warm_stop_set_counters(Config& config, core::TraceConfig& trace,
                                   Run run) {
  orchestrator::SharedStopSet cold;
  trace.stop_set = &cold;
  trace.consult_stop_set = false;
  (void)run(config);

  orchestrator::SharedStopSet warm;
  warm.seed(cold.delta());
  trace.stop_set = &warm;
  trace.consult_stop_set = true;
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  const auto result = run(config);
  EXPECT_GT(result.probes_saved_by_stop_set, 0u);
  EXPECT_GT(result.traces_stopped, 0u);
  EXPECT_EQ(
      registry.counter("mmlpt_stop_set_probes_saved_total", "")->value(),
      result.probes_saved_by_stop_set);
  EXPECT_EQ(
      registry.counter("mmlpt_stop_set_traces_stopped_total", "")->value(),
      result.traces_stopped);
}

TEST(IpSurvey, WarmStopSetCountsSavingsInTheRegistry) {
  IpSurveyConfig config;
  config.routes = 12;
  config.distinct_diamonds = 5;
  config.seed = 4;
  config.generator.shared_prefix_hops = 3;
  expect_warm_stop_set_counters(
      config, config.trace,
      [](const IpSurveyConfig& c) { return run_ip_survey(c); });
}

TEST(RouterSurvey, WarmStopSetCountsSavingsInTheRegistry) {
  RouterSurveyConfig config;
  config.routes = 8;
  config.distinct_diamonds = 5;
  config.multilevel.rounds = 2;
  config.seed = 4;
  config.generator.shared_prefix_hops = 3;
  expect_warm_stop_set_counters(
      config, config.multilevel.trace,
      [](const RouterSurveyConfig& c) { return run_router_survey(c); });
}

TEST(AliasEval, RoundsStatsShape) {
  AliasEvalConfig config;
  config.routes = 4;
  config.distinct_diamonds = 4;
  config.multilevel.rounds = 3;
  config.direct.rounds = 1;
  config.direct.samples_per_round = 10;
  config.seed = 13;
  const auto result = run_alias_eval(config);
  ASSERT_EQ(result.multilevel_results.size(), 4u);

  const auto stats = alias_rounds_stats(result.multilevel_results);
  ASSERT_EQ(stats.precision.size(), 4u);  // rounds 0..3
  // Final round is its own reference.
  EXPECT_DOUBLE_EQ(stats.precision.back(), 1.0);
  EXPECT_DOUBLE_EQ(stats.recall.back(), 1.0);
  // Probe ratio grows monotonically from 1.0.
  EXPECT_DOUBLE_EQ(stats.probe_ratio.front(), 1.0);
  for (std::size_t r = 1; r < stats.probe_ratio.size(); ++r) {
    EXPECT_GE(stats.probe_ratio[r], stats.probe_ratio[r - 1]);
  }
}

TEST(AliasEval, Table2CellsConsistent) {
  AliasEvalConfig config;
  config.routes = 6;
  config.distinct_diamonds = 5;
  config.multilevel.rounds = 2;
  config.direct.rounds = 1;
  config.direct.samples_per_round = 15;
  config.seed = 17;
  const auto result = run_alias_eval(config);
  const auto& t = result.table2;
  EXPECT_EQ(t.accept_accept + t.accept_indirect_reject_direct +
                t.accept_indirect_unable_direct +
                t.reject_indirect_accept_direct +
                t.unable_indirect_accept_direct,
            t.total_sets);
}

}  // namespace
}  // namespace mmlpt::survey
