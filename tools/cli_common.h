// Helpers shared by the mmlpt_* CLIs: --version output (git describe +
// build type injected by tools/CMakeLists.txt), address-family flag
// parsing (--family 4|6|ipv4|ipv6, or the traceroute-style bare "-6"),
// the fleet/window flag block (--window/--jobs/--pps/--burst/--fsync)
// that mmlpt_trace, mmlpt_survey and mmlpt_fleet all share — declared
// and validated here exactly once — the JSONL output and interrupt path
// of the two fleet CLIs (mmlpt_survey, mmlpt_fleet), and the unknown-flag
// check that derives each tool's accepted flags from its usage text.
#ifndef MMLPT_TOOLS_CLI_COMMON_H
#define MMLPT_TOOLS_CLI_COMMON_H

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/flags.h"
#include "common/json.h"
#include "core/validation.h"
#include "daemon/server.h"
#include "daemon/signals.h"
#include "net/ip_address.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "orchestrator/fleet.h"
#include "orchestrator/result_sink.h"
#include "orchestrator/stop_set.h"
#include "probe/cancel.h"

#ifndef MMLPT_GIT_DESCRIBE
#define MMLPT_GIT_DESCRIBE "unknown"
#endif
#ifndef MMLPT_BUILD_TYPE
#define MMLPT_BUILD_TYPE "unspecified"
#endif

namespace mmlpt::tools {

/// Handle --version: print "<tool> <git describe> (<build type>)" and
/// return true when the flag was present.
inline bool handle_version(const Flags& flags, const char* tool) {
  if (!flags.has("version")) return false;
  std::printf("%s %s (%s)\n", tool, MMLPT_GIT_DESCRIBE, MMLPT_BUILD_TYPE);
  return true;
}

/// The requested address family: --family 4|6|ipv4|ipv6|inet|inet6, or
/// the bare "-6" / "-4" switches (traceroute tradition; the Flags parser
/// maps them to --family, last one wins). Defaults to IPv4.
inline net::Family parse_family(const Flags& flags) {
  const std::string name = flags.get("family", "4");
  const auto family = net::parse_family_name(name);
  if (!family) {
    throw ConfigError("unknown --family '" + name + "' (4|6|ipv4|ipv6)");
  }
  return *family;
}

/// --algorithm mda|mda-lite|single-flow (default mda-lite) — shared by
/// mmlpt_fleet and mmlpt_client so the names cannot drift.
inline core::Algorithm parse_algorithm(const Flags& flags) {
  const std::string name = flags.get("algorithm", "mda-lite");
  if (name == "mda") return core::Algorithm::kMda;
  if (name == "mda-lite") return core::Algorithm::kMdaLite;
  if (name == "single-flow") return core::Algorithm::kSingleFlow;
  throw ConfigError("unknown --algorithm (mda|mda-lite|single-flow): " + name);
}

/// Read a --destinations label file: one label per line, blanks and
/// '#' comments skipped, CRLF tolerated.
inline std::vector<std::string> read_destination_labels(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SystemError("cannot open --destinations file: " + path);
  std::vector<std::string> labels;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    labels.push_back(line);
  }
  return labels;
}

/// The per-trace probe window: --window N, N >= 1 (1 = serial probing).
inline int parse_window(const Flags& flags) {
  const auto window = static_cast<int>(flags.get_int("window", 1));
  if (window < 1) throw ConfigError("--window must be >= 1");
  return window;
}

/// The Doubletree stop-set flag pair shared by every tracing CLI.
/// An empty cache path means the feature is fully off.
struct StopSetOptions {
  /// --topology-cache F: the persistent store file ("" = feature off).
  std::string topology_cache;
  /// --stop-set: consult the cache (Doubletree stopping). Without it a
  /// cache only records — output stays byte-identical to no cache.
  bool consult = false;
};

inline StopSetOptions parse_stop_set_options(const Flags& flags) {
  StopSetOptions options;
  options.topology_cache = flags.get("topology-cache", "");
  options.consult = flags.get_bool("stop-set", false);
  if (options.consult && options.topology_cache.empty()) {
    throw ConfigError("--stop-set requires --topology-cache <file>");
  }
  return options;
}

/// The observability flag pair shared by every tracing CLI. Both default
/// off; neither changes a byte of the tool's primary output.
struct ObsOptions {
  /// --metrics-out F: write the Prometheus text exposition at exit.
  std::string metrics_out;
  /// --trace-events F: record spans/instants and write a Chrome
  /// trace-event JSON document at exit.
  std::string trace_events;
};

inline ObsOptions parse_obs_options(const Flags& flags) {
  ObsOptions options;
  options.metrics_out = flags.get("metrics-out", "");
  options.trace_events = flags.get("trace-events", "");
  return options;
}

/// One CLI run's observability lifecycle: owns the process registry the
/// run's components register in, installs the global trace recorder when
/// --trace-events asked for one, and writes both artifact files in
/// finish(). Destruction clears the global recorder either way, so an
/// exception path cannot leave a dangling pointer installed.
class ObsSession {
 public:
  explicit ObsSession(ObsOptions options) : options_(std::move(options)) {
    if (!options_.trace_events.empty()) {
      recorder_ = std::make_unique<obs::TraceRecorder>();
      obs::set_recorder(recorder_.get());
    }
  }

  ~ObsSession() {
    if (recorder_) obs::set_recorder(nullptr);
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  [[nodiscard]] obs::MetricsRegistry& registry() noexcept {
    return registry_;
  }

  /// Write the --metrics-out and --trace-events files. Call after the
  /// run's instrumented threads have joined (also fine after an
  /// interrupt — partial artifacts beat none).
  void finish() {
    if (!options_.metrics_out.empty()) {
      std::ofstream out(options_.metrics_out);
      if (!out) {
        throw SystemError("cannot open --metrics-out file: " +
                          options_.metrics_out);
      }
      out << registry_.render();
      if (!out) {
        throw SystemError("cannot write --metrics-out file: " +
                          options_.metrics_out);
      }
    }
    if (recorder_) {
      obs::set_recorder(nullptr);
      recorder_->write(options_.trace_events);
      recorder_.reset();
    }
  }

 private:
  ObsOptions options_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::TraceRecorder> recorder_;
};

/// The per-destination JSONL sink of a fleet CLI. With --fsync every
/// committed line is flushed and fsynced, so a crashed run keeps
/// everything it already merged.
struct StreamingOutput {
  std::ofstream file;
  std::unique_ptr<orchestrator::FdJsonlFile> durable;
  std::optional<orchestrator::ResultSink> sink;

  explicit StreamingOutput(std::ostream& out) { sink.emplace(out); }

  StreamingOutput(const std::string& path, bool fsync_lines) {
    if (fsync_lines) {
      // Durable streaming needs the raw descriptor to fsync per line.
      durable = std::make_unique<orchestrator::FdJsonlFile>(path);
      sink.emplace(durable->stream(),
                   orchestrator::ResultSink::Options{true, durable->fd()});
      return;
    }
    file.open(path);
    if (!file) throw SystemError("cannot open --output file: " + path);
    sink.emplace(file);
  }
};

/// The --output FILE / --fsync pair. Without --output the lines go to
/// `fallback`, or nowhere (nullptr) when there is none.
inline std::unique_ptr<StreamingOutput> make_output(
    const Flags& flags, std::ostream* fallback = nullptr) {
  const auto path = flags.get("output", "");
  const bool fsync_lines = flags.get_bool("fsync", false);
  if (path.empty()) {
    if (fsync_lines) throw ConfigError("--fsync requires --output FILE");
    if (fallback == nullptr) return nullptr;
    return std::make_unique<StreamingOutput>(*fallback);
  }
  return std::make_unique<StreamingOutput>(path, fsync_lines);
}

/// RAII link of a CancelToken to the ShutdownSignal: SIGINT/SIGTERM fire
/// the token, in-flight probes resolve through the transport cancel path
/// and the run unwinds as CanceledError.
struct SignalCancelScope {
  daemon::ShutdownSignal& shutdown = daemon::ShutdownSignal::install();
  probe::CancelToken token;

  SignalCancelScope() { shutdown.link(&token); }
  ~SignalCancelScope() { shutdown.link(nullptr); }
  SignalCancelScope(const SignalCancelScope&) = delete;
  SignalCancelScope& operator=(const SignalCancelScope&) = delete;
};

/// The interrupt epilogue of the fleet CLIs: committed lines survive the
/// interrupt (flushed, and fsynced under --fsync), the stop set's
/// discoveries are written and the observability artifacts too (partial
/// artifacts beat none), exactly like a clean exit; then report and turn
/// the signal into the conventional 128+N exit code.
inline int finish_interrupted(const char* tool,
                              const SignalCancelScope& scope,
                              StreamingOutput* output,
                              orchestrator::StopSetSession& session,
                              ObsSession& obs) {
  if (output != nullptr) output->sink->flush();
  session.flush();
  obs.finish();
  std::fprintf(stderr,
               "%s: interrupted by signal %d, committed results flushed\n",
               tool, scope.shutdown.signal());
  return scope.shutdown.exit_code();
}

/// Builder for the one machine-parsable JSON summary line the tracing
/// CLIs print to stderr when a run completes — replacing the old ad-hoc
/// printf summaries, which scripts had to parse three different ways.
/// Shape:
///   {"tool":...,<tool fields>,"stop_set":{...},"metrics":{...}}
/// The stop_set object only appears when a topology cache was in use and
/// the metrics object only lists non-zero scalar series, so quick runs
/// stay one short line.
class SummaryLine {
 public:
  explicit SummaryLine(const char* tool) {
    w_.begin_object();
    w_.key("tool");
    w_.value(tool);
  }

  /// Tool-specific fields, appended in call order.
  template <typename V>
  SummaryLine& field(const char* name, V value) {
    w_.key(name);
    w_.value(value);
    return *this;
  }

  /// The shared stop-set object (no-op when the session is inactive).
  /// The union digest identifies the discovered topology regardless of
  /// how discovery was split between cache and probing; the CI warm-run
  /// gate compares it across runs.
  SummaryLine& stop_set(const orchestrator::StopSetSession& session,
                        std::uint64_t probes_saved,
                        std::uint64_t traces_stopped) {
    const auto* set = session.stop_set();
    if (set == nullptr) return *this;
    w_.key("stop_set");
    w_.begin_object();
    w_.key("consulted");
    w_.value(session.consult());
    w_.key("visible_hops");
    w_.value(static_cast<std::uint64_t>(set->visible_hop_count()));
    w_.key("pending_hops");
    w_.value(static_cast<std::uint64_t>(set->pending_hop_count()));
    w_.key("probes_saved");
    w_.value(probes_saved);
    w_.key("traces_stopped");
    w_.value(traces_stopped);
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(set->union_digest()));
    w_.key("union_digest");
    w_.value(digest);
    w_.end_object();
    return *this;
  }

  /// The non-zero counter/gauge series of `registry`, keyed by canonical
  /// series name (name{label="v"}).
  SummaryLine& metrics(const obs::MetricsRegistry& registry) {
    w_.key("metrics");
    w_.begin_object();
    for (const auto& [name, value] : registry.scalar_snapshot()) {
      if (value == 0) continue;
      w_.key(name);
      w_.value(static_cast<std::int64_t>(value));
    }
    w_.end_object();
    return *this;
  }

  /// Close the object and print the line to stderr.
  void print() {
    w_.end_object();
    std::fprintf(stderr, "%s\n", w_.view().c_str());
  }

 private:
  JsonWriter w_;
};

/// The fleet flag block shared by mmlpt_survey, mmlpt_fleet and mmlptd:
/// the scheduler's FleetConfig (jobs, pps, burst; no metrics registry),
/// the per-trace window and the stop-set pair. Every field is validated
/// here so the three CLIs cannot drift apart. These tools probe only the
/// Fakeroute simulator, so the block has no transport choice.
struct FleetOptions : orchestrator::FleetConfig {
  int window = 1;
  StopSetOptions stop_set;
};

inline FleetOptions parse_fleet_options(const Flags& flags) {
  FleetOptions options;
  options.jobs = static_cast<int>(flags.get_int("jobs", 1));
  if (options.jobs < 1) throw ConfigError("--jobs must be >= 1");
  options.pps = flags.get_double("pps", 0.0);
  if (options.pps < 0.0) throw ConfigError("--pps must be >= 0");
  options.burst = static_cast<int>(flags.get_int("burst", 64));
  if (options.burst < 1) throw ConfigError("--burst must be >= 1");
  options.window = parse_window(flags);
  options.stop_set = parse_stop_set_options(flags);
  return options;
}

/// The fleet-job spec flag block shared by mmlpt_fleet and mmlpt_client
/// (--destinations/--routes/--family/--algorithm/--distinct/
/// --shared-prefix/--seed/--window): one parser, so a job submitted over
/// the daemon socket means exactly what the same flags mean standalone.
inline daemon::FleetJobSpec parse_job_spec(const Flags& flags) {
  daemon::FleetJobSpec spec;
  if (flags.has("destinations")) {
    spec.labels = read_destination_labels(flags.get("destinations", ""));
    if (spec.labels.empty()) {
      throw ConfigError("--destinations list is empty");
    }
  } else {
    spec.routes = flags.get_uint("routes", 64);
  }
  spec.algorithm = parse_algorithm(flags);
  spec.family = parse_family(flags);
  spec.seed = flags.get_uint("seed", 1);
  spec.distinct = flags.get_uint("distinct", 100);
  spec.shared_prefix = static_cast<int>(flags.get_int("shared-prefix", 0));
  if (spec.shared_prefix < 0) {
    throw ConfigError("--shared-prefix must be >= 0");
  }
  spec.window = parse_window(flags);
  return spec;
}

/// The mmlptd admission/daemon flag block. The fleet block
/// (--jobs/--pps/--burst) and the stop-set pair are
/// parsed separately with the shared helpers above.
struct DaemonCliOptions {
  std::string socket;
  daemon::AdmissionLimits admission;
};

inline DaemonCliOptions parse_daemon_options(const Flags& flags) {
  DaemonCliOptions options;
  options.socket = flags.get("socket", "");
  if (options.socket.empty()) {
    throw ConfigError("--socket PATH is required");
  }
  options.admission.max_jobs_total =
      static_cast<int>(flags.get_int("max-jobs", 8));
  options.admission.max_jobs_per_tenant =
      static_cast<int>(flags.get_int("max-jobs-per-tenant", 2));
  options.admission.tenant_pps = flags.get_double("tenant-pps", 0.0);
  if (options.admission.tenant_pps < 0.0) {
    throw ConfigError("--tenant-pps must be >= 0");
  }
  options.admission.tenant_burst =
      static_cast<int>(flags.get_int("tenant-burst", 64));
  if (options.admission.tenant_burst < 1) {
    throw ConfigError("--tenant-burst must be >= 1");
  }
  return options;
}

// ---- shared usage text, generated from one option table ----------------
//
// Each CLI used to carry a hand-wrapped copy of the shared flag help;
// they drifted. Now there is one table per flag block and one formatter,
// and every print_usage() renders from it.

/// One flag's usage entry. `help` holds pre-wrapped lines separated by
/// '\n'; the formatter supplies indentation and column alignment.
struct OptionSpec {
  const char* flag;  ///< flag with its metavariable, e.g. "--jobs N"
  const char* help;
};

/// Render a flag block: two-space indent, help aligned at column
/// `kUsageHelpColumn`, continuation lines indented to the same column.
/// A flag too wide for the column gets its help on the following lines.
inline constexpr std::size_t kUsageHelpColumn = 23;

inline std::string format_option_block(std::span<const OptionSpec> options) {
  std::string out;
  for (const auto& option : options) {
    std::string line = "  ";
    line += option.flag;
    // Keep at least two spaces between flag and help.
    if (line.size() + 2 > kUsageHelpColumn) {
      out += line;
      out += '\n';
      line.assign(kUsageHelpColumn, ' ');
    } else {
      line.append(kUsageHelpColumn - line.size(), ' ');
    }
    std::string_view help = option.help;
    while (!help.empty()) {
      const auto newline = help.find('\n');
      out += line;
      out += help.substr(0, newline);
      out += '\n';
      line.assign(kUsageHelpColumn, ' ');
      if (newline == std::string_view::npos) break;
      help.remove_prefix(newline + 1);
    }
  }
  return out;
}

/// The fleet flag block (--jobs/--window/--pps/--burst/--fsync).
inline std::span<const OptionSpec> fleet_option_table() {
  static const OptionSpec table[] = {
      {"--jobs N",
       "concurrent trace workers (default 1; results\n"
       "are identical for every N, only wall-clock\n"
       "changes)"},
      {"--window N",
       "per-trace probe window (default 1 = serial\n"
       "probing; output is identical for every N; a\n"
       "window of N costs N rate-limiter tokens, so\n"
       "it composes with --pps/--burst)"},
      {"--pps X",
       "fleet-wide probe rate limit, packets/second\n"
       "(default unlimited)"},
      {"--burst N", "rate-limiter burst capacity (default 64)"},
      {"--fsync",
       "with --output: fsync after every destination\n"
       "line, so a crash never loses committed\n"
       "results"},
  };
  return table;
}

/// The Doubletree stop-set flag pair (--topology-cache/--stop-set).
inline std::span<const OptionSpec> stop_set_option_table() {
  static const OptionSpec table[] = {
      {"--topology-cache F",
       "persistent topology store backing the\n"
       "Doubletree stop set: loaded at start as a\n"
       "frozen epoch, this run's discoveries appended\n"
       "at exit. Without --stop-set the cache only\n"
       "records (output stays byte-identical)"},
      {"--stop-set",
       "consult the cache: halt forward probing at\n"
       "hops confirmed by earlier runs, trace the\n"
       "near side backward Doubletree-style, and\n"
       "report probes_saved_by_stop_set. Requires\n"
       "--topology-cache"},
  };
  return table;
}

/// The observability flag pair (--metrics-out/--trace-events).
inline std::span<const OptionSpec> obs_option_table() {
  static const OptionSpec table[] = {
      {"--metrics-out F",
       "write the run's Prometheus-text metrics\n"
       "(transport, rate limiter, stop set) to F\n"
       "at exit. Primary output is unchanged"},
      {"--trace-events F",
       "record window/burst spans and per-hop RTT\n"
       "instants; write a Chrome trace-event JSON\n"
       "document to F at exit (load it in\n"
       "chrome://tracing or Perfetto). Primary output\n"
       "is unchanged"},
  };
  return table;
}

/// The fleet-job spec flag block (mmlpt_fleet's trace flags, reused
/// verbatim by mmlpt_client so daemon jobs mean what standalone runs
/// mean).
inline std::span<const OptionSpec> job_spec_option_table() {
  static const OptionSpec table[] = {
      {"--destinations FILE",
       "one label per line (e.g. an IPv4 address);\n"
       "each line becomes one destination task,\n"
       "labelled with that string. Without it,\n"
       "--routes synthetic destinations are generated"},
      {"--routes N", "destination count when no --destinations (64)"},
      {"-6 | --family 4|6",
       "address family of the synthetic world\n"
       "(default IPv4)"},
      {"--algorithm A", "mda | mda-lite | single-flow (default mda-lite)"},
      {"--distinct N", "distinct diamond templates in the world (100)"},
      {"--shared-prefix N",
       "every synthetic route starts with the same N\n"
       "leading routers (default 0 = fully random)"},
      {"--seed N", "world + trace seed (default 1)"},
      {"--window N", "per-trace probe window (default 1 = serial)"},
  };
  return table;
}

/// The mmlptd daemon flag block (--socket plus admission control).
inline std::span<const OptionSpec> daemon_option_table() {
  static const OptionSpec table[] = {
      {"--socket PATH", "unix socket to listen on (required)"},
      {"--max-jobs N",
       "concurrent jobs across all tenants (default 8;\n"
       "0 = unlimited). Excess jobs are REFUSED with a\n"
       "rejected status, never queued daemon-side"},
      {"--max-jobs-per-tenant N",
       "concurrent jobs per tenant identity (default 2;\n"
       "0 = unlimited)"},
      {"--tenant-pps X",
       "per-tenant probe rate limit, layered on the\n"
       "fleet-wide --pps budget (default unlimited)"},
      {"--tenant-burst N", "per-tenant token-bucket burst (default 64)"},
  };
  return table;
}

/// The mmlpt_client connection flag block.
inline std::span<const OptionSpec> client_option_table() {
  static const OptionSpec table[] = {
      {"--socket PATH", "mmlptd unix socket to connect to (required)"},
      {"--tenant NAME",
       "tenant identity for admission control and\n"
       "per-tenant rate limits (default \"default\")"},
      {"--output FILE", "JSONL destination (default stdout)"},
      {"--status",
       "print the daemon's machine-parsable status\n"
       "JSON and exit (no job is submitted)"},
      {"--metrics",
       "print the daemon's Prometheus-text metrics\n"
       "exposition and exit (no job is submitted)"},
      {"--cancel-after-lines N",
       "send a cancel after N result lines (testing\n"
       "and demos; default 0 = never)"},
  };
  return table;
}

/// Usage text for the stop-set flags alone (mmlpt_trace).
inline std::string stop_set_options_usage() {
  return format_option_block(stop_set_option_table());
}

/// Usage text for the observability flags (every tracing CLI).
inline std::string obs_options_usage() {
  return format_option_block(obs_option_table());
}

/// Usage text for the full shared fleet flag block, stop-set and
/// observability flags included (mmlpt_survey, mmlpt_fleet).
inline std::string fleet_options_usage() {
  return format_option_block(fleet_option_table()) +
         format_option_block(stop_set_option_table()) +
         format_option_block(obs_option_table());
}

/// Usage text for the fleet-job spec block (mmlpt_client).
inline std::string job_spec_options_usage() {
  return format_option_block(job_spec_option_table());
}

/// Usage text for the daemon flag block (mmlptd).
inline std::string daemon_options_usage() {
  return format_option_block(daemon_option_table());
}

/// Usage text for the client connection flag block (mmlpt_client).
inline std::string client_options_usage() {
  return format_option_block(client_option_table());
}

// ---- unknown-flag rejection --------------------------------------------
//
// A tool's accepted flags are the ones its usage text documents, so a
// removed or misspelt flag fails loudly instead of being ignored, and a
// flag cannot be accepted without being documented.

/// Exit status for a command line naming a flag the tool does not take.
inline constexpr int kUsageErrorExit = 2;

/// The long flag names `usage` documents: the flag column of every
/// option row — a line indented by exactly two spaces whose text starts
/// with '-' — up to the first double space. Example command lines and
/// prose cross-references do not count.
inline std::set<std::string> usage_flag_names(std::string_view usage) {
  std::set<std::string> names;
  while (!usage.empty()) {
    const auto newline = usage.find('\n');
    std::string_view line = usage.substr(0, newline);
    usage.remove_prefix(newline == std::string_view::npos ? usage.size()
                                                          : newline + 1);
    if (!line.starts_with("  -")) continue;
    line.remove_prefix(2);
    line = line.substr(0, line.find("  "));
    for (auto at = line.find("--"); at != std::string_view::npos;
         at = line.find("--", at)) {
      at += 2;
      const auto end =
          line.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789-", at);
      names.emplace(line.substr(at, end - at));
      at = end;
    }
  }
  return names;
}

/// When the command line names a flag `usage` does not document (--help
/// is always accepted), print "<tool>: unknown flag --x" per such flag
/// and then the usage to stderr, and return true; the caller then exits
/// with kUsageErrorExit.
inline bool reject_unknown_flags(const Flags& flags, const std::string& usage,
                                 const char* tool) {
  const auto known = usage_flag_names(usage);
  bool rejected = false;
  for (const auto& name : flags.names()) {
    if (name == "help" || known.contains(name)) continue;
    std::fprintf(stderr, "%s: unknown flag --%s\n", tool, name.c_str());
    rejected = true;
  }
  if (rejected) std::fprintf(stderr, "\n%s", usage.c_str());
  return rejected;
}

}  // namespace mmlpt::tools

#endif  // MMLPT_TOOLS_CLI_COMMON_H
