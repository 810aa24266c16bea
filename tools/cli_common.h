// The front end shared by the five mmlpt_* CLIs (tools/cli_common.cpp):
// one entry point (cli_main) that handles --help, undocumented flags,
// --version and the error exit; every usage text, rendered from the
// OptionSpec tables in which each shared flag has exactly one row; and the
// flag parsers, the observability session, the JSONL output and interrupt
// path of the fleet CLIs and the stderr summary line.
#ifndef MMLPT_TOOLS_CLI_COMMON_H
#define MMLPT_TOOLS_CLI_COMMON_H

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

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

namespace mmlpt::tools {

// ---- entry point and usage text -----------------------------------------

enum class Tool : std::uint8_t { kTrace, kSurvey, kFleet, kClient, kDaemon };

/// The binary name, e.g. "mmlpt_fleet".
[[nodiscard]] const char* tool_name(Tool tool);

/// The full --help text of `tool`. Every option row comes from an
/// OptionSpec table, so a flag reads the same in every tool.
[[nodiscard]] std::string usage_text(Tool tool);

/// Exit status for a command line naming a flag the tool does not take.
inline constexpr int kUsageErrorExit = 2;

/// The whole main() of every CLI. Parses the command line, then in order:
/// --help prints the usage to stdout (exit 0); a flag the usage does not
/// document is rejected (kUsageErrorExit); --version prints "<tool> <git
/// describe> (<build type>)" (exit 0); otherwise returns run(flags). An
/// exception prints "<tool>: <what()>" to stderr and exits 1.
int cli_main(Tool tool, int argc, char** argv, int (*run)(const Flags&));

/// One flag's usage entry. `help` holds pre-wrapped lines separated by
/// '\n'; the formatter supplies indentation and column alignment.
struct OptionSpec {
  const char* flag;  ///< flag with its metavariable, e.g. "--jobs N"
  const char* help;
};

/// Column at which every option row's help text starts.
inline constexpr std::size_t kUsageHelpColumn = 23;

/// Render option rows: two-space indent, help aligned at
/// kUsageHelpColumn, continuation lines indented to the same column. A
/// flag too wide for the column gets its help on the following lines.
[[nodiscard]] std::string format_option_block(
    std::span<const OptionSpec> options);

/// The long flag names `usage` documents: the flag column of every
/// option row (a line indented by exactly two spaces whose text starts
/// with '-') up to the first double space. Example command lines and
/// prose cross-references do not count.
[[nodiscard]] std::set<std::string> usage_flag_names(std::string_view usage);

/// When the command line names a flag `usage` does not document (--help
/// is always accepted), print "<tool>: unknown flag --x" per such flag and
/// then the usage to stderr, and return true.
bool reject_unknown_flags(const Flags& flags, const std::string& usage,
                          const char* tool);

// ---- flag parsers --------------------------------------------------------
//
// Each validates its values and throws ConfigError naming the flag.

/// --family 4|6|ipv4|ipv6|inet|inet6 or the bare "-6" / "-4"; IPv4 default.
[[nodiscard]] net::Family parse_family(const Flags& flags);

/// --algorithm mda|mda-lite|single-flow (default mda-lite).
[[nodiscard]] core::Algorithm parse_algorithm(const Flags& flags);

/// --window N, N >= 1 (1 = serial probing).
[[nodiscard]] int parse_window(const Flags& flags);

/// --distinct N, N >= 1; `fallback` when absent.
[[nodiscard]] std::uint64_t parse_distinct(const Flags& flags,
                                           std::uint64_t fallback);

/// --rounds N, N >= 0 alias-resolution rounds (default 10).
[[nodiscard]] int parse_rounds(const Flags& flags);

/// mmlpt_trace's tracer flags: --alpha in (0, 1), --branching >= 1,
/// --phi >= 2 and --window.
[[nodiscard]] core::TraceConfig parse_trace_config(const Flags& flags);

/// One label per line, blanks and '#' comments skipped, CRLF tolerated.
[[nodiscard]] std::vector<std::string> read_destination_labels(
    const std::string& path);

/// The Doubletree stop-set flag pair. An empty cache path means off.
struct StopSetOptions {
  /// --topology-cache F: the persistent store file ("" = feature off).
  std::string topology_cache;
  /// --stop-set: consult the cache (Doubletree stopping). Without it a
  /// cache only records, and output stays byte-identical to no cache.
  bool consult = false;
};

[[nodiscard]] StopSetOptions parse_stop_set_options(const Flags& flags);

/// The observability flag pair. Neither changes a byte of primary output.
struct ObsOptions {
  std::string metrics_out;   ///< --metrics-out F: Prometheus text at exit
  std::string trace_events;  ///< --trace-events F: Chrome trace JSON at exit
};

[[nodiscard]] ObsOptions parse_obs_options(const Flags& flags);

/// The fleet flag block of mmlpt_survey, mmlpt_fleet and mmlptd: the
/// scheduler's FleetConfig (jobs, pps, burst; no metrics registry), the
/// per-trace window and the stop-set pair. These tools probe only the
/// Fakeroute simulator, so the block has no transport choice.
struct FleetOptions : orchestrator::FleetConfig {
  int window = 1;
  StopSetOptions stop_set;
};

[[nodiscard]] FleetOptions parse_fleet_options(const Flags& flags);

/// The fleet-job spec of mmlpt_fleet and mmlpt_client (--destinations,
/// --routes, --family, --algorithm, --distinct, --shared-prefix, --seed,
/// --window): one parser, so a job submitted over the daemon socket means
/// exactly what the same flags mean standalone.
[[nodiscard]] daemon::FleetJobSpec parse_job_spec(const Flags& flags);

/// mmlptd's --socket and admission-control flags.
struct DaemonCliOptions {
  std::string socket;
  daemon::AdmissionLimits admission;
};

[[nodiscard]] DaemonCliOptions parse_daemon_options(const Flags& flags);

// ---- run plumbing --------------------------------------------------------

/// One CLI run's observability lifecycle: owns the registry the run's
/// components register in, installs the global trace recorder when
/// --trace-events asked for one, and writes both files in finish().
/// Destruction clears the global recorder either way, so an exception
/// path cannot leave a dangling pointer installed.
class ObsSession {
 public:
  explicit ObsSession(ObsOptions options);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  [[nodiscard]] obs::MetricsRegistry& registry() noexcept {
    return registry_;
  }

  /// Write the --metrics-out and --trace-events files. Call after the
  /// run's instrumented threads have joined (also after an interrupt:
  /// partial artifacts beat none).
  void finish();

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
  StreamingOutput(const std::string& path, bool fsync_lines);
};

/// The --output FILE / --fsync pair. Without --output the lines go to
/// `fallback`, or nowhere (nullptr) when there is none.
[[nodiscard]] std::unique_ptr<StreamingOutput> make_output(
    const Flags& flags, std::ostream* fallback = nullptr);

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

/// The interrupt epilogue of the fleet CLIs: committed lines, the stop
/// set and the observability files are written as on a clean exit; then
/// "<tool>: interrupted by signal N" and the 128+N exit code.
int finish_interrupted(const char* tool, const SignalCancelScope& scope,
                       StreamingOutput* output,
                       orchestrator::StopSetSession& session,
                       ObsSession& obs);

/// The one machine-parsable JSON line a tracing CLI prints to stderr when
/// a run completes:
///   {"tool":...,<tool fields>,"stop_set":{...},"metrics":{...}}
/// The stop_set object only appears when a topology cache was in use and
/// the metrics object only lists non-zero scalar series.
class SummaryLine {
 public:
  explicit SummaryLine(const char* tool);

  /// Tool-specific fields, appended in call order.
  template <typename V>
  SummaryLine& field(const char* name, V value) {
    w_.key(name);
    w_.value(value);
    return *this;
  }

  /// The session's stop-set object (no-op when the session is inactive).
  SummaryLine& stop_set(const orchestrator::StopSetSession& session,
                        std::uint64_t probes_saved,
                        std::uint64_t traces_stopped);

  /// The non-zero counter/gauge series of `registry`, keyed by canonical
  /// series name (name{label="v"}).
  SummaryLine& metrics(const obs::MetricsRegistry& registry);

  /// Close the object and print the line to stderr.
  void print();

 private:
  JsonWriter w_;
};

}  // namespace mmlpt::tools

#endif  // MMLPT_TOOLS_CLI_COMMON_H
