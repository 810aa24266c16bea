// The fleet determinism contract (the property the whole orchestrator is
// built around): for a fixed seed, jobs=1 and jobs=8 produce identical
// merged DiamondAccounting and byte-identical per-destination JSON.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "daemon/fleet_job.h"
#include "orchestrator/result_sink.h"
#include "survey/ip_survey.h"
#include "survey/router_survey.h"

namespace mmlpt::survey {
namespace {

/// Everything observable about one side of the accounting, flattened for
/// equality comparison.
std::string accounting_fingerprint(const DiamondDistributions& d) {
  std::ostringstream out;
  out << d.total << '|' << d.meshed << '|' << d.asymmetric << '|'
      << d.asymmetric_unmeshed << '|' << d.length2 << '\n';
  for (const auto& [key, count] : d.max_width.bins()) {
    out << 'w' << key << ':' << count << ' ';
  }
  for (const auto& [key, count] : d.max_length.bins()) {
    out << 'l' << key << ':' << count << ' ';
  }
  for (const auto& [key, count] : d.width_asymmetry.bins()) {
    out << 'a' << key << ':' << count << ' ';
  }
  for (const auto& [cell, count] : d.joint_length_width.cells()) {
    out << 'j' << cell.first << ',' << cell.second << ':' << count << ' ';
  }
  for (const auto& [value, fraction] : d.meshed_hop_ratio.points()) {
    out << 'm' << value << ':' << fraction << ' ';
  }
  for (const auto& [value, fraction] : d.probability_difference.points()) {
    out << 'p' << value << ':' << fraction << ' ';
  }
  for (const auto& [value, fraction] : d.meshing_miss.points()) {
    out << 'x' << value << ':' << fraction << ' ';
  }
  return std::move(out).str();
}

struct IpRun {
  IpSurveyResult result;
  std::string jsonl;
};

IpRun run_ip(int jobs) {
  IpSurveyConfig config;
  config.routes = 40;
  config.distinct_diamonds = 12;
  config.seed = 21;
  config.jobs = jobs;
  IpRun run;
  std::ostringstream out;
  {
    orchestrator::ResultSink sink(out);
    run.result = run_ip_survey(config, &sink);
  }
  run.jsonl = out.str();
  return run;
}

TEST(FleetDeterminism, IpSurveyIdenticalAcrossJobCounts) {
  const auto serial = run_ip(1);
  const auto fleet = run_ip(8);

  // Identical per-destination JSON, byte for byte, in the same order.
  EXPECT_FALSE(serial.jsonl.empty());
  EXPECT_EQ(serial.jsonl, fleet.jsonl);

  // Identical merged accounting on both the measured and distinct sides.
  EXPECT_EQ(serial.result.routes_traced, fleet.result.routes_traced);
  EXPECT_EQ(serial.result.routes_with_diamonds,
            fleet.result.routes_with_diamonds);
  EXPECT_EQ(serial.result.total_packets, fleet.result.total_packets);
  EXPECT_EQ(accounting_fingerprint(serial.result.accounting.measured()),
            accounting_fingerprint(fleet.result.accounting.measured()));
  EXPECT_EQ(accounting_fingerprint(serial.result.accounting.distinct()),
            accounting_fingerprint(fleet.result.accounting.distinct()));
}

TEST(FleetDeterminism, IpSurveyJsonlHasOneOrderedLinePerRoute) {
  const auto fleet = run_ip(4);
  std::istringstream lines(fleet.jsonl);
  std::string line;
  std::size_t index = 0;
  while (std::getline(lines, line)) {
    const auto expected_prefix = "{\"index\":" + std::to_string(index) + ",";
    EXPECT_EQ(line.rfind(expected_prefix, 0), 0u)
        << "line " << index << " starts with: " << line.substr(0, 40);
    ++index;
  }
  EXPECT_EQ(index, 40u);
}

TEST(FleetDeterminism, RouterSurveyIdenticalAcrossJobCounts) {
  const auto run_with = [](int jobs) {
    RouterSurveyConfig config;
    config.routes = 8;
    config.distinct_diamonds = 6;
    config.multilevel.rounds = 2;
    config.seed = 11;
    config.jobs = jobs;
    std::ostringstream out;
    RouterSurveyResult result;
    {
      orchestrator::ResultSink sink(out);
      result = run_router_survey(config, &sink);
    }
    return std::pair<RouterSurveyResult, std::string>(std::move(result),
                                                      out.str());
  };
  const auto [serial, serial_jsonl] = run_with(1);
  const auto [fleet, fleet_jsonl] = run_with(8);

  EXPECT_FALSE(serial_jsonl.empty());
  EXPECT_EQ(serial_jsonl, fleet_jsonl);
  EXPECT_EQ(serial.routes_traced, fleet.routes_traced);
  EXPECT_EQ(serial.total_packets, fleet.total_packets);
  EXPECT_EQ(serial.unique_diamonds, fleet.unique_diamonds);
  EXPECT_EQ(serial.resolution_counts, fleet.resolution_counts);
  EXPECT_EQ(serial.distinct_router_size.bins(),
            fleet.distinct_router_size.bins());
  EXPECT_EQ(serial.aggregated_router_size.bins(),
            fleet.aggregated_router_size.bins());
  EXPECT_EQ(serial.ip_width.bins(), fleet.ip_width.bins());
  EXPECT_EQ(serial.router_width.bins(), fleet.router_width.bins());
  EXPECT_EQ(serial.width_before_after.cells(),
            fleet.width_before_after.cells());
}

TEST(FleetDeterminism, IpSurveyLinesEqualFleetJobLines) {
  // The IP survey and the daemon's fleet job both run run_route_fleet:
  // the same world, seed and algorithm give the same bytes, on both
  // families and at any job count.
  for (const auto family : {net::Family::kIpv4, net::Family::kIpv6}) {
    for (const int jobs : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "IPv" << (family == net::Family::kIpv6 ? 6 : 4)
                   << " jobs " << jobs);
      IpSurveyConfig config;
      config.routes = 24;
      config.distinct_diamonds = 10;
      config.seed = 3;
      config.jobs = jobs;
      config.generator.family = family;
      std::ostringstream survey_out;
      {
        orchestrator::ResultSink sink(survey_out);
        (void)run_ip_survey(config, &sink);
      }

      daemon::FleetJobSpec spec;
      spec.routes = config.routes;
      spec.algorithm = core::Algorithm::kMda;
      spec.family = family;
      spec.seed = config.seed;
      spec.distinct = config.distinct_diamonds;
      orchestrator::FleetConfig fleet_config;
      fleet_config.jobs = jobs;
      orchestrator::FleetScheduler fleet(fleet_config);
      std::ostringstream fleet_out;
      {
        orchestrator::ResultSink sink(fleet_out);
        daemon::FleetJobHooks hooks;
        hooks.on_line = [&](std::size_t i, std::string line) {
          sink.emit(i, line);
        };
        (void)daemon::run_fleet_job(fleet, nullptr, spec,
                                    fakeroute::SimConfig{}, hooks);
      }

      EXPECT_FALSE(survey_out.str().empty());
      EXPECT_EQ(survey_out.str(), fleet_out.str());
    }
  }
}

TEST(FleetDeterminism, RateLimitedSurveyTracesIdentically) {
  // A (generous) pps budget slows the survey down but must not change a
  // single trace: throttling gates WHEN probes go out, not what they are.
  IpSurveyConfig config;
  config.routes = 6;
  config.distinct_diamonds = 5;
  config.seed = 9;
  const auto unlimited = run_ip_survey(config);
  config.jobs = 4;
  config.pps = 50000.0;
  config.burst = 256;
  const auto limited = run_ip_survey(config);
  EXPECT_EQ(unlimited.total_packets, limited.total_packets);
  EXPECT_EQ(accounting_fingerprint(unlimited.accounting.measured()),
            accounting_fingerprint(limited.accounting.measured()));
}

}  // namespace
}  // namespace mmlpt::survey
