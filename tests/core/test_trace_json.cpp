#include "core/trace_json.h"

#include <gtest/gtest.h>

#include "core/validation.h"
#include "probe/simulated_network.h"
#include "topology/reference.h"

namespace mmlpt::core {
namespace {

TEST(TraceJson, GraphExportContainsAddressesAndEdges) {
  TraceResult result;
  result.graph = topo::simplest_diamond();
  const auto json = trace_to_json(result);
  EXPECT_NE(json.find("\"hop_count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"vertex_count\":4"), std::string::npos);
  EXPECT_NE(json.find("\"10.1.0.0\""), std::string::npos);
  EXPECT_NE(json.find("\"successors\":[\"10.1.2.0\"]"), std::string::npos);
}

TEST(TraceJson, StarsExportAsNull) {
  topo::MultipathGraph g;
  g.add_hop();
  (void)g.add_vertex(0, {});
  TraceResult result;
  result.graph = g;
  const auto json = trace_to_json(result);
  EXPECT_NE(json.find("\"addr\":null"), std::string::npos);
}

TEST(TraceJson, TraceResultExport) {
  const auto truth = plain_ground_truth(topo::simplest_diamond());
  const auto result = run_trace(truth, Algorithm::kMdaLite, {}, {}, 1);
  const auto json = trace_to_json(result);
  EXPECT_NE(json.find("\"packets\":"), std::string::npos);
  EXPECT_NE(json.find("\"reached_destination\":true"), std::string::npos);
  EXPECT_NE(json.find("\"switched_to_mda\":false"), std::string::npos);
  EXPECT_NE(json.find("\"discovery_events\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"vertex\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"edge\""), std::string::npos);
}

TEST(TraceJson, BalancedBrackets) {
  const auto truth = plain_ground_truth(topo::fig1_unmeshed());
  const auto json = trace_to_json(run_trace(truth, Algorithm::kMda, {}, {}, 2));
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceJson, MultilevelExport) {
  // Simplest diamond with both middle interfaces on one shared-counter
  // router.
  auto truth = plain_ground_truth(topo::simplest_diamond());
  truth.vertex_router = {0, 1, 1, 2};
  truth.routers.resize(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    truth.routers[i].id = i;
    truth.routers[i].ip_id_policy = topo::IpIdPolicy::kSharedCounter;
  }
  fakeroute::Simulator simulator(truth, {}, 1);
  probe::SimulatedNetwork network(simulator);
  probe::ProbeEngine::Config config;
  config.source = truth.source;
  config.destination = truth.destination;
  probe::ProbeEngine engine(network, config);
  MultilevelConfig ml;
  ml.rounds = 2;
  const auto result = MultilevelTracer(engine, ml).run();

  const auto json = multilevel_to_json(result);
  EXPECT_NE(json.find("\"ip_level\":"), std::string::npos);
  EXPECT_NE(json.find("\"router_level\":"), std::string::npos);
  EXPECT_NE(json.find("\"rounds\":["), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"accept\""), std::string::npos);
}

}  // namespace
}  // namespace mmlpt::core
