// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload ip-survey|router-survey|daemon-requests
//             --seed N --seconds S --trace 0|1 --workdir DIR
//             [--smoke] [--jobs J]
//   perfbench --selftest
//
// Prints a human-readable metric table, then, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
// non-zero, without the JSON line, when a run cannot complete.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "ledger.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const auto v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
      } else if (arg == "--workdir") {
        options.workdir = value();
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--jobs") {
        options.jobs = std::stoi(value());
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (options.workdir.empty()) usage("--workdir is required");
  if (!(options.seconds > 0) || options.seconds > 120) {
    usage("--seconds must be in (0, 120]");
  }
  if (options.jobs < 1) usage("--jobs must be >= 1");
  return options;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-44s %16.6g %-6s n=%-9zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
}

void print_result(const Report& report, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// ---- self-test of the benchmark's own arithmetic ------------------------

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

int selftest() {
  using perfbench::self_time;
  using perfbench::tail_percentile;

  // Percentile rule: highest ladder percentile with >= 10 samples beyond.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  auto p = tail_percentile(hundred);
  expect(near(p.percentile, 90.0) && near(p.value, 90.0) && p.samples == 100,
         "100 samples -> p90 (10 beyond)");
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  p = tail_percentile(thousand);
  expect(near(p.percentile, 99.0) && near(p.value, 990.0),
         "1000 unsorted samples -> p99");
  std::vector<double> many(100000, 1.0);
  expect(near(tail_percentile(many).percentile, 99.0),
         "the ladder stops at p99");
  std::vector<double> twelve(12, 1.0);
  p = tail_percentile(twelve);
  expect(near(p.percentile, 50.0) && p.samples == 12,
         "too few samples fall back to the median");
  std::vector<double> forty;
  for (int i = 1; i <= 40; ++i) forty.push_back(i);
  p = tail_percentile(forty);
  expect(near(p.percentile, 75.0) && near(p.value, 30.0), "40 samples -> p75");
  expect(tail_percentile({}).samples == 0, "empty input");
  expect(near(perfbench::median({3, 1, 2, 4}), 2.5), "even median");

  // Self time: children clipped to the parent, overlaps counted once.
  expect(self_time(0, 100, {}) == 100, "no children");
  expect(self_time(0, 100, {{10, 20}, {30, 50}}) == 70, "disjoint children");
  expect(self_time(0, 100, {{10, 40}, {30, 60}}) == 50, "overlapping children");
  expect(self_time(0, 100, {{10, 60}, {20, 30}}) == 50, "nested children");
  expect(self_time(0, 100, {{-50, 10}, {90, 150}}) == 80,
         "children outside the parent are clipped");
  expect(self_time(0, 100, {{0, 100}, {0, 100}}) == 0, "fully covered");

  // Ledger: parent links and leaf charging to the innermost span.
  {
    perfbench::Ledger ledger;
    {
      perfbench::Ledger::Scope outer(&ledger, perfbench::SpanKind::kTask, 7);
      {
        perfbench::Ledger::Scope inner(&ledger, perfbench::SpanKind::kTrace, 7);
        ledger.leaf(perfbench::LeafKind::kSubmit, 5, 3);
      }
      ledger.leaf(perfbench::LeafKind::kPoll, 2, 0);
    }
    const auto spans = ledger.spans();
    expect(spans.size() == 2, "two spans recorded");
    if (spans.size() == 2) {
      const auto& inner = spans[0];
      const auto& outer = spans[1];
      expect(inner.parent == outer.id && outer.parent == 0, "parent links");
      expect(inner.leaf_ns == 5 && outer.leaf_ns == 2,
             "leaf time charged to the innermost span");
    }
    const auto leaves = ledger.leaf_totals();
    expect(leaves[0].items == 3 && leaves[0].calls == 1, "leaf totals");
  }
  perfbench::Ledger::Scope disabled(nullptr, perfbench::SpanKind::kTask, 0);

  expect(perfbench::derive_seed(5, 3) == perfbench::derive_seed(5, 3) &&
             perfbench::derive_seed(5, 3) != perfbench::derive_seed(5, 4) &&
             perfbench::derive_seed(5, 3) != perfbench::derive_seed(6, 3),
         "derived seeds are deterministic and distinct");

  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) return selftest();
  const Options options = parse(argc, argv);
  Report report;
  try {
    if (options.workload == "ip-survey") {
      perfbench::run_ip_survey(options, report);
    } else if (options.workload == "router-survey") {
      perfbench::run_router_survey(options, report);
    } else if (options.workload == "daemon-requests") {
      perfbench::run_daemon_requests(options, report);
    } else {
      usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  const auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  for (const auto& problem : report.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  print_table(options.trace ? "per-layer metrics" : "end-to-end metrics",
              metrics);
  print_result(report, metrics);
  return 0;
}
