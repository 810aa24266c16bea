// The CLI front end in tools/cli_common.{h,cpp}: every tool's usage
// rendered from the option tables (one row per flag, so the tools cannot
// drift), the flag parsers and their validation, the entry point, and
// the unknown-flag check derived from usage text.
#include "cli_common.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

namespace mmlpt::tools {
namespace {

Flags make_flags(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("test"));
  for (auto& arg : args) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

std::string padded_flag(const std::string& flag) {
  std::string line = "  " + flag;
  line.append(kUsageHelpColumn - line.size(), ' ');
  return line;
}

TEST(FormatOptionBlock, AlignsHelpAtTheSharedColumn) {
  const OptionSpec table[] = {{"--jobs N", "worker count"}};
  const auto block = format_option_block(table);
  EXPECT_EQ(block, padded_flag("--jobs N") + "worker count\n");
  // Two-space indent + flag + padding lands exactly on the help column.
  EXPECT_EQ(block.find("worker"), kUsageHelpColumn);
}

TEST(FormatOptionBlock, ContinuationLinesShareTheColumn) {
  const OptionSpec table[] = {{"--pps X", "first line\nsecond line"}};
  const auto block = format_option_block(table);
  const std::string indent(kUsageHelpColumn, ' ');
  EXPECT_EQ(block, padded_flag("--pps X") + "first line\n" + indent +
                       "second line\n");
}

TEST(FormatOptionBlock, WideFlagDropsHelpToTheNextLine) {
  // Flag + indent + two mandatory spaces exceeds the column: the help
  // starts on its own line rather than drifting right.
  const OptionSpec table[] = {
      {"--a-very-long-flag NAME", "does a thing"}};
  const auto block = format_option_block(table);
  const std::string indent(kUsageHelpColumn, ' ');
  EXPECT_EQ(block, "  --a-very-long-flag NAME\n" + indent + "does a thing\n");
}

constexpr Tool kTools[] = {Tool::kTrace, Tool::kSurvey, Tool::kFleet,
                           Tool::kClient, Tool::kDaemon};

/// The option rows of a usage text: each row's first line plus its
/// continuation lines (indented to the help column), keyed by the row's
/// first long flag.
std::vector<std::pair<std::string, std::string>> option_rows(
    const std::string& usage) {
  std::vector<std::pair<std::string, std::string>> rows;
  const std::string continuation(kUsageHelpColumn, ' ');
  std::size_t at = 0;
  for (auto end = usage.find('\n'); end != std::string::npos;
       end = usage.find('\n', at)) {
    const auto line = usage.substr(at, end - at + 1);
    at = end + 1;
    if (line.starts_with("  -")) {
      const auto names = usage_flag_names(line);
      rows.emplace_back(names.empty() ? "" : *names.begin(), line);
    } else if (line.starts_with(continuation) && !rows.empty()) {
      rows.back().second += line;
    }
  }
  return rows;
}

TEST(UsageBlocks, FleetUsageListsEveryFlagExactlyOnce) {
  // Match the flag column only ("\n  --flag"): help text legitimately
  // cross-references other flags.
  const auto usage = "\n" + usage_text(Tool::kFleet);
  for (const char* flag :
       {"--destinations", "--routes", "-6 | --family", "--algorithm",
        "--distinct", "--shared-prefix", "--seed", "--output", "--version",
        "--jobs", "--window", "--pps", "--burst", "--fsync",
        "--topology-cache", "--stop-set", "--metrics-out",
        "--trace-events"}) {
    const auto entry = std::string("\n  ") + flag;
    const auto first = usage.find(entry);
    ASSERT_NE(first, std::string::npos) << flag;
    EXPECT_EQ(usage.find(entry, first + 1), std::string::npos)
        << flag << " documented twice";
  }
}

TEST(UsageBlocks, EveryToolDocumentsEachFlagInOneRow) {
  for (const auto tool : kTools) {
    std::multiset<std::string> names;
    for (const auto& [flag, row] : option_rows(usage_text(tool))) {
      for (const auto& name : usage_flag_names(row)) names.insert(name);
    }
    for (const auto& name : names) {
      EXPECT_EQ(names.count(name), 1u) << tool_name(tool) << " --" << name;
    }
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()),
              usage_flag_names(usage_text(tool)));
  }
}

TEST(UsageBlocks, SharedRowsAreByteEqualInEveryTool) {
  // Only --socket means two things: listen (mmlptd) or connect (client).
  std::map<std::string, std::pair<std::string, const char*>> first_seen;
  int shared = 0;
  for (const auto tool : kTools) {
    for (const auto& [flag, row] : option_rows(usage_text(tool))) {
      if (flag == "socket") continue;
      const auto [it, fresh] =
          first_seen.try_emplace(flag, row, tool_name(tool));
      if (fresh) continue;
      ++shared;
      EXPECT_EQ(row, it->second.first)
          << "--" << flag << " in " << tool_name(tool) << " differs from "
          << it->second.second;
    }
  }
  // --family, --seed, --window and --version alone appear 14 more times.
  EXPECT_GE(shared, 14);
}

TEST(UsageBlocks, EveryToolAcceptsItsOptionSet) {
  const std::set<std::string> job_spec = {
      "destinations", "routes", "family", "algorithm", "distinct",
      "shared-prefix", "seed", "window", "version"};
  const std::set<std::string> fleet = {
      "jobs", "window", "pps", "burst", "fsync", "topology-cache",
      "stop-set", "version"};
  const auto with = [](std::set<std::string> base,
                       std::initializer_list<const char*> more) {
    base.insert(more.begin(), more.end());
    return base;
  };
  EXPECT_EQ(usage_flag_names(usage_text(Tool::kTrace)),
            (std::set<std::string>{
                "family", "algorithm", "alpha", "branching", "phi",
                "builtin", "topology", "generate", "multilevel", "rounds",
                "json", "seed", "real", "destination", "source", "window",
                "topology-cache", "stop-set", "metrics-out", "trace-events",
                "version"}));
  EXPECT_EQ(usage_flag_names(usage_text(Tool::kSurvey)),
            with(fleet, {"mode", "family", "routes", "pairs", "distinct",
                         "rounds", "seed", "output", "metrics-out",
                         "trace-events"}));
  EXPECT_EQ(usage_flag_names(usage_text(Tool::kClient)),
            with(job_spec, {"socket", "tenant", "output", "status",
                            "metrics", "cancel-after-lines"}));
  // The daemon takes neither --window (a job's window is in the client's
  // spec) nor --fsync (it writes no JSONL file).
  EXPECT_EQ(usage_flag_names(usage_text(Tool::kDaemon)),
            (std::set<std::string>{
                "socket", "max-jobs", "max-jobs-per-tenant", "tenant-pps",
                "tenant-burst", "jobs", "pps", "burst", "topology-cache",
                "stop-set", "version"}));
}

TEST(UnknownFlags, OnlyOptionRowsDefineTheAcceptedSet) {
  // Option rows are two-space-indented lines starting with '-'; their
  // flag column ends at the first double space. Examples, continuation
  // lines and prose mention flags the tool does not take.
  const std::string usage =
      "usage: tool [options]\n"
      "  tool --example 1 \\\n"
      "       --continued-example\n"
      "options:\n"
      "  --alpha N       first; unlike --beta-in-help\n"
      "  -6 | --family 4|6\n"
      "                  wide flag, help on its own line\n"
      "  --with-digits2  bare switch\n"
      "See --prose-flag for more.\n";
  EXPECT_EQ(usage_flag_names(usage),
            (std::set<std::string>{"alpha", "family", "with-digits2"}));
}

TEST(UnknownFlags, FleetBlockAcceptsExactlyItsDocumentedFlags) {
  // No tool takes --transport; the smoke tests cover the retired flags
  // end to end.
  EXPECT_EQ(usage_flag_names(usage_text(Tool::kFleet)),
            (std::set<std::string>{
                "algorithm", "burst", "destinations", "distinct", "family",
                "fsync", "jobs", "metrics-out", "output", "pps", "routes",
                "seed", "shared-prefix", "stop-set", "topology-cache",
                "trace-events", "version", "window"}));
}

TEST(UnknownFlags, RejectionPrintsTheFlagAndTheUsage) {
  const std::string usage = "options:\n  --alpha N  first\n";
  testing::internal::CaptureStderr();
  EXPECT_FALSE(reject_unknown_flags(make_flags({"--alpha", "1", "--help"}),
                                    usage, "tool"));
  EXPECT_TRUE(reject_unknown_flags(
      make_flags({"--bogus-flag", "1", "--alpha", "2", "-6"}), usage,
      "tool"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "tool: unknown flag --bogus-flag\n"
            "tool: unknown flag --family\n\n" +
                usage);
}

/// cli_main over `args` (argv[0] is supplied).
int run_main(Tool tool, std::vector<std::string> args,
             int (*run)(const Flags&)) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("test"));
  for (auto& arg : args) argv.push_back(arg.data());
  return cli_main(tool, static_cast<int>(argv.size()), argv.data(), run);
}

int run_returns_seven(const Flags&) { return 7; }
int run_throws(const Flags&) { throw ConfigError("--phi must be >= 2"); }

TEST(CliMain, HelpThenUnknownFlagsThenVersionThenRun) {
  testing::internal::CaptureStdout();
  EXPECT_EQ(run_main(Tool::kClient, {"--help", "--routse", "5"}, run_throws),
            0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            usage_text(Tool::kClient));

  testing::internal::CaptureStderr();
  EXPECT_EQ(run_main(Tool::kClient, {"--routse", "5", "--version"},
                     run_throws),
            kUsageErrorExit);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "mmlpt_client: unknown flag --routse\n\n" +
                usage_text(Tool::kClient));

  testing::internal::CaptureStdout();
  EXPECT_EQ(run_main(Tool::kDaemon, {"--version"}, run_throws), 0);
  EXPECT_TRUE(testing::internal::GetCapturedStdout().starts_with("mmlptd "));

  EXPECT_EQ(run_main(Tool::kFleet, {"--routes", "3"}, run_returns_seven), 7);
}

TEST(CliMain, AnExceptionIsOneLineNamingTheToolAndExitOne) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_main(Tool::kTrace, {"--phi", "1"}, run_throws), 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "mmlpt_trace: --phi must be >= 2\n");
}

TEST(TracerFlags, OutOfRangeValuesNameTheFlag) {
  const auto message = [](std::vector<std::string> args) -> std::string {
    try {
      (void)parse_trace_config(make_flags(std::move(args)));
    } catch (const ConfigError& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(message({"--phi", "1"}), "--phi must be >= 2");
  EXPECT_EQ(message({"--alpha", "1.5"}), "--alpha must be in (0, 1)");
  EXPECT_EQ(message({"--alpha", "0"}), "--alpha must be in (0, 1)");
  EXPECT_EQ(message({"--branching", "0"}), "--branching must be >= 1");
  EXPECT_EQ(message({"--window", "0"}), "--window must be >= 1");
  EXPECT_EQ(message({"--alpha", "0.1", "--branching", "5", "--phi", "3"}),
            "accepted");
  const auto config = parse_trace_config(make_flags({}));
  EXPECT_EQ(config.alpha, core::TraceConfig{}.alpha);
  EXPECT_EQ(config.max_branching, core::TraceConfig{}.max_branching);
  EXPECT_EQ(config.phi, core::TraceConfig{}.phi);
}

TEST(TracerFlags, RoundsAndDistinctAreRangeChecked) {
  EXPECT_EQ(parse_rounds(make_flags({})), 10);
  EXPECT_EQ(parse_rounds(make_flags({"--rounds", "0"})), 0);
  EXPECT_THROW((void)parse_rounds(make_flags({"--rounds", "-1"})),
               ConfigError);
  EXPECT_EQ(parse_distinct(make_flags({}), 80), 80u);
  EXPECT_THROW((void)parse_distinct(make_flags({"--distinct", "0"}), 80),
               ConfigError);
  EXPECT_THROW((void)parse_job_spec(make_flags({"--distinct", "0"})),
               ConfigError);
}

TEST(StopSetOptionsParsing, DefaultsToFeatureOff) {
  const auto options = parse_stop_set_options(make_flags({}));
  EXPECT_TRUE(options.topology_cache.empty());
  EXPECT_FALSE(options.consult);
}

TEST(StopSetOptionsParsing, CachePathAloneMeansRecordOnly) {
  const auto options = parse_stop_set_options(
      make_flags({"--topology-cache", "warm.mtps"}));
  EXPECT_EQ(options.topology_cache, "warm.mtps");
  EXPECT_FALSE(options.consult);
}

TEST(StopSetOptionsParsing, ConsultRequiresACachePath) {
  EXPECT_THROW((void)parse_stop_set_options(make_flags({"--stop-set"})),
               ConfigError);
  const auto options = parse_stop_set_options(
      make_flags({"--stop-set", "--topology-cache", "warm.mtps"}));
  EXPECT_TRUE(options.consult);
}

TEST(FleetOptionsParsing, CarriesTheStopSetPair) {
  const auto options = parse_fleet_options(make_flags(
      {"--jobs", "3", "--topology-cache", "warm.mtps", "--stop-set"}));
  EXPECT_EQ(options.jobs, 3);
  EXPECT_EQ(options.stop_set.topology_cache, "warm.mtps");
  EXPECT_TRUE(options.stop_set.consult);
}

TEST(ParseAlgorithm, KnowsEveryNameAndRejectsTheRest) {
  EXPECT_EQ(parse_algorithm(make_flags({})), core::Algorithm::kMdaLite);
  EXPECT_EQ(parse_algorithm(make_flags({"--algorithm", "mda"})),
            core::Algorithm::kMda);
  EXPECT_EQ(parse_algorithm(make_flags({"--algorithm", "mda-lite"})),
            core::Algorithm::kMdaLite);
  EXPECT_EQ(parse_algorithm(make_flags({"--algorithm", "single-flow"})),
            core::Algorithm::kSingleFlow);
  EXPECT_THROW((void)parse_algorithm(make_flags({"--algorithm", "dfs"})),
               ConfigError);
}

/// Writes `content` to a temp file, removes it on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& content)
      : path_("/tmp/mmlpt-cli-test-" + std::to_string(::getpid()) + "-" +
              std::to_string(++counter_) + ".txt") {
    std::ofstream out(path_);
    out << content;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

TEST(ReadDestinationLabels, SkipsBlanksCommentsAndCarriageReturns) {
  const TempFile file("10.0.0.1\r\n\n# a comment\n10.0.0.2\n");
  const auto labels = read_destination_labels(file.path());
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], "10.0.0.1");
  EXPECT_EQ(labels[1], "10.0.0.2");
}

TEST(ReadDestinationLabels, MissingFileIsASystemError) {
  EXPECT_THROW((void)read_destination_labels("/nonexistent/dests.txt"),
               SystemError);
}

TEST(ParseJobSpec, DefaultsMatchTheFleetJobSpecDefaults) {
  const auto spec = parse_job_spec(make_flags({}));
  EXPECT_EQ(spec, daemon::FleetJobSpec{});
}

TEST(ParseJobSpec, CarriesEveryFlagIntoTheSpec) {
  const auto spec = parse_job_spec(make_flags(
      {"--routes", "12", "--family", "6", "--algorithm", "mda", "--seed",
       "42", "--distinct", "7", "--shared-prefix", "3", "--window", "4"}));
  EXPECT_TRUE(spec.labels.empty());
  EXPECT_EQ(spec.routes, 12u);
  EXPECT_EQ(spec.family, net::Family::kIpv6);
  EXPECT_EQ(spec.algorithm, core::Algorithm::kMda);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.distinct, 7u);
  EXPECT_EQ(spec.shared_prefix, 3);
  EXPECT_EQ(spec.window, 4);
}

TEST(ParseJobSpec, DestinationsFileOverridesRoutes) {
  const TempFile file("a\nb\nc\n");
  const auto spec = parse_job_spec(
      make_flags({"--destinations", file.path(), "--routes", "99"}));
  EXPECT_EQ(spec.labels, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(spec.destination_count(), 3u);
}

TEST(ParseJobSpec, RejectsEmptyListAndNegativePrefix) {
  const TempFile empty("# only comments\n\n");
  EXPECT_THROW(
      (void)parse_job_spec(make_flags({"--destinations", empty.path()})),
      ConfigError);
  EXPECT_THROW((void)parse_job_spec(make_flags({"--shared-prefix", "-1"})),
               ConfigError);
  EXPECT_THROW((void)parse_job_spec(make_flags({"--window", "0"})),
               ConfigError);
}

TEST(ParseDaemonOptions, RequiresTheSocketPath) {
  EXPECT_THROW((void)parse_daemon_options(make_flags({})), ConfigError);
}

TEST(ParseDaemonOptions, DefaultsAndOverrides) {
  const auto defaults =
      parse_daemon_options(make_flags({"--socket", "/tmp/d.sock"}));
  EXPECT_EQ(defaults.socket, "/tmp/d.sock");
  EXPECT_EQ(defaults.admission.max_jobs_total, 8);
  EXPECT_EQ(defaults.admission.max_jobs_per_tenant, 2);
  EXPECT_EQ(defaults.admission.tenant_pps, 0.0);
  EXPECT_EQ(defaults.admission.tenant_burst, 64);

  const auto tuned = parse_daemon_options(make_flags(
      {"--socket", "/tmp/d.sock", "--max-jobs", "16",
       "--max-jobs-per-tenant", "4", "--tenant-pps", "250.5",
       "--tenant-burst", "8"}));
  EXPECT_EQ(tuned.admission.max_jobs_total, 16);
  EXPECT_EQ(tuned.admission.max_jobs_per_tenant, 4);
  EXPECT_DOUBLE_EQ(tuned.admission.tenant_pps, 250.5);
  EXPECT_EQ(tuned.admission.tenant_burst, 8);
}

TEST(ParseDaemonOptions, RejectsOutOfRangeValues) {
  EXPECT_THROW((void)parse_daemon_options(make_flags(
                   {"--socket", "s", "--tenant-pps", "-1"})),
               ConfigError);
  EXPECT_THROW((void)parse_daemon_options(make_flags(
                   {"--socket", "s", "--tenant-burst", "0"})),
               ConfigError);
}

TEST(UsageBlocks, DaemonAndClientBlocksListEveryFlagExactlyOnce) {
  const struct {
    Tool tool;
    std::vector<const char*> flags;
  } blocks[] = {
      {Tool::kDaemon,
       {"--socket", "--max-jobs N", "--max-jobs-per-tenant", "--tenant-pps",
        "--tenant-burst", "--jobs", "--pps", "--burst", "--version"}},
      {Tool::kClient,
       {"--socket", "--tenant", "--output", "--status", "--metrics",
        "--cancel-after-lines", "--destinations", "--routes",
        "-6 | --family", "--algorithm", "--distinct", "--shared-prefix",
        "--seed", "--window", "--version"}},
  };
  for (const auto& block : blocks) {
    const auto usage = "\n" + usage_text(block.tool);
    for (const char* flag : block.flags) {
      const auto entry = std::string("\n  ") + flag;
      const auto first = usage.find(entry);
      ASSERT_NE(first, std::string::npos) << flag;
      EXPECT_EQ(usage.find(entry, first + 1), std::string::npos)
          << flag << " documented twice";
    }
  }
}

TEST(ObsOptionsParsing, DefaultsToDisabled) {
  const auto options = parse_obs_options(make_flags({}));
  EXPECT_TRUE(options.metrics_out.empty());
  EXPECT_TRUE(options.trace_events.empty());
  const auto enabled = parse_obs_options(make_flags(
      {"--metrics-out", "m.prom", "--trace-events", "t.json"}));
  EXPECT_EQ(enabled.metrics_out, "m.prom");
  EXPECT_EQ(enabled.trace_events, "t.json");
}

TEST(ObsSession, InstallsAndClearsTheGlobalRecorder) {
  ASSERT_EQ(obs::recorder(), nullptr);
  {
    ObsOptions options;
    options.trace_events = "/tmp/mmlpt-cli-obs-" +
                           std::to_string(::getpid()) + "-unwritten.json";
    ObsSession session(std::move(options));
    EXPECT_NE(obs::recorder(), nullptr);
    // finish() was never called (the interrupt/throw path): the
    // destructor must still clear the global pointer.
  }
  EXPECT_EQ(obs::recorder(), nullptr);

  // No --trace-events: no recorder is ever installed.
  ObsSession off{ObsOptions{}};
  EXPECT_EQ(obs::recorder(), nullptr);
}

TEST(ObsSession, FinishWritesBothArtifacts) {
  const auto base =
      "/tmp/mmlpt-cli-obs-" + std::to_string(::getpid());
  ObsOptions options;
  options.metrics_out = base + ".prom";
  options.trace_events = base + ".json";
  {
    ObsSession session(std::move(options));
    session.registry()
        .counter("mmlpt_test_probes_total", "test series")
        ->add(7);
    obs::instant("marker", "test");
    session.finish();
    EXPECT_EQ(obs::recorder(), nullptr);  // cleared before the write
  }

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return text;
  };
  const auto prom = slurp(base + ".prom");
  EXPECT_NE(prom.find("mmlpt_test_probes_total 7\n"), std::string::npos);
  const auto trace = slurp(base + ".json");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"marker\""), std::string::npos);
  std::remove((base + ".prom").c_str());
  std::remove((base + ".json").c_str());
}

TEST(SummaryLine, PrintsOneJsonObjectListingNonZeroSeries) {
  obs::MetricsRegistry registry;
  registry
      .counter("mmlpt_transport_probes_sent_total", "h",
               {{"transport", "sim"}})
      ->add(64);
  (void)registry.counter("mmlpt_probe_retries_total", "h");  // stays 0

  testing::internal::CaptureStderr();
  SummaryLine("mmlpt_test")
      .field("destinations", std::uint64_t{8})
      .field("transport", "sim")
      .metrics(registry)
      .print();
  const auto line = testing::internal::GetCapturedStderr();

  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.substr(line.size() - 2), "}\n");
  EXPECT_NE(line.find("\"tool\":\"mmlpt_test\""), std::string::npos);
  EXPECT_NE(line.find("\"destinations\":8"), std::string::npos);
  EXPECT_NE(line.find("\"transport\":\"sim\""), std::string::npos);
  EXPECT_NE(line.find("\"mmlpt_transport_probes_sent_total"
                      "{transport=\\\"sim\\\"}\":64"),
            std::string::npos)
      << line;
  // Zero series are elided, not printed as noise.
  EXPECT_EQ(line.find("mmlpt_probe_retries_total"), std::string::npos);
}

}  // namespace
}  // namespace mmlpt::tools
