#include "cli_common.h"

#include <cstdio>
#include <exception>
#include <initializer_list>

#include "common/assert.h"
#include "common/error.h"

#ifndef MMLPT_GIT_DESCRIBE
#define MMLPT_GIT_DESCRIBE "unknown"
#endif
#ifndef MMLPT_BUILD_TYPE
#define MMLPT_BUILD_TYPE "unspecified"
#endif

namespace mmlpt::tools {
namespace {

// ---- option tables --------------------------------------------------------
//
// Every option row of every usage text is one entry below, and a flag has
// one row in one table (only --socket means a different thing in mmlptd
// and mmlpt_client), so a flag reads byte for byte the same in each
// tool's --help.

/// The flags several tools share that no other block holds.
std::span<const OptionSpec> shared_option_table() {
  static const OptionSpec table[] = {
      {"--destinations FILE",
       "one label per line (e.g. an IPv4 address);\n"
       "each line becomes one destination task,\n"
       "labelled with that string. Without it,\n"
       "--routes synthetic destinations are generated"},
      {"--routes N",
       "synthetic destinations to trace when no\n"
       "--destinations (default 64; mmlpt_survey:\n"
       "500, router mode 150)"},
      {"-6 | --family 4|6",
       "address family (default IPv4). On IPv6 the\n"
       "Paris flow identifier is the 20-bit flow\n"
       "label; alias resolution reports\n"
       "\"unsupported-family\" (no IP-ID)"},
      {"--algorithm A", "mda | mda-lite | single-flow (default mda-lite)"},
      {"--distinct N",
       "distinct diamond templates in the world\n"
       "(default 100; mmlpt_survey: 200, router mode\n"
       "80)"},
      {"--shared-prefix N",
       "every synthetic route starts with the same N\n"
       "leading routers (default 0 = fully random)"},
      {"--rounds N", "alias-resolution rounds (default 10)"},
      {"--seed N", "world + trace seed (default 1)"},
      {"--output FILE",
       "JSONL destination (default stdout; none for\n"
       "mmlpt_survey)"},
      {"--version", "print version and exit"},
  };
  return table;
}

/// mmlpt_trace's own flags.
std::span<const OptionSpec> trace_option_table() {
  static const OptionSpec table[] = {
      {"--alpha A --branching B", "failure bound (default 0.05 / 30)"},
      {"--phi N", "MDA-Lite meshing-test effort (default 2)"},
      {"--builtin NAME",
       "simplest fig1 fig1-meshed wide\n"
       "symmetric asymmetric meshed"},
      {"--topology FILE", "trace a .topo file in the simulator"},
      {"--generate", "trace a generated random route"},
      {"--multilevel", "alias resolution while tracing (--rounds)"},
      {"--json", "machine-readable output"},
      {"--real --destination IP", "raw sockets (needs CAP_NET_RAW)"},
      {"--source IP",
       "source address for --real (default: the one\n"
       "the route to --destination uses)"},
  };
  return table;
}

/// mmlpt_survey's own flags.
std::span<const OptionSpec> survey_option_table() {
  static const OptionSpec table[] = {
      {"--mode ip|evaluation|router", "(default ip)"},
      {"--pairs N", "source/destination pairs (evaluation)"},
  };
  return table;
}

/// The fleet flag block (--jobs/--window/--pps/--burst/--fsync).
std::span<const OptionSpec> fleet_option_table() {
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
std::span<const OptionSpec> stop_set_option_table() {
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
std::span<const OptionSpec> obs_option_table() {
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

/// The mmlptd daemon flag block (--socket plus admission control).
std::span<const OptionSpec> daemon_option_table() {
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
std::span<const OptionSpec> client_option_table() {
  static const OptionSpec table[] = {
      {"--socket PATH", "mmlptd unix socket to connect to (required)"},
      {"--tenant NAME",
       "tenant identity for admission control and\n"
       "per-tenant rate limits (default \"default\")"},
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

/// The rows of `table` for the long flags `names`, in that order.
std::string rows(std::span<const OptionSpec> table,
                 std::initializer_list<std::string_view> names) {
  std::vector<OptionSpec> picked;
  for (const auto name : names) {
    for (const auto& row : table) {
      if (usage_flag_names(std::string("  ") + row.flag)
              .contains(std::string(name))) {
        picked.push_back(row);
      }
    }
  }
  MMLPT_ENSURES(picked.size() == names.size());
  return format_option_block(picked);
}

std::string block(std::span<const OptionSpec> (*table)()) {
  return format_option_block(table());
}

/// The fleet, stop-set and observability blocks.
std::string fleet_options_usage() {
  return block(fleet_option_table) + block(stop_set_option_table) +
         block(obs_option_table);
}

constexpr const char kTraceHead[] =
    "usage: mmlpt_trace [options]\n"
    "\n"
    "  mmlpt_trace --builtin fig1                 # simulated reference "
    "diamond\n"
    "  mmlpt_trace --topology net.topo --json     # topology file, JSON "
    "output\n"
    "  mmlpt_trace --generate --seed 9 --multilevel --rounds 10\n"
    "  mmlpt_trace -6 --builtin fig1 --json       # IPv6 (flow-label "
    "Paris)\n"
    "  sudo mmlpt_trace --real --destination 93.184.216.34   # raw sockets\n"
    "\n"
    "options:\n";

constexpr const char kSurveyHead[] =
    "usage: mmlpt_survey [options]\n"
    "\n"
    "  mmlpt_survey --mode ip --routes 1000        # Sec. 5.1 IP survey\n"
    "  mmlpt_survey --mode evaluation --pairs 500  # Sec. 2.4.2 variants\n"
    "  mmlpt_survey --mode router --routes 200 --rounds 10  # Sec. 5.2\n"
    "\n"
    "options:\n";

constexpr const char kFleetHead[] =
    "usage: mmlpt_fleet [options]\n"
    "\n"
    "  mmlpt_fleet --routes 64 --jobs 8                 # 8-worker fleet\n"
    "  mmlpt_fleet --destinations dests.txt --jobs 8 --pps 500 \\\n"
    "              --output traces.jsonl --fsync\n"
    "\n"
    "Traces N destinations concurrently over the Fakeroute simulator and\n"
    "streams one JSON line per destination, in destination order:\n"
    "  {\"index\":i,\"destination\":\"a.b.c.d\",\"trace\":{...}}\n"
    "\n"
    "options:\n";
constexpr const char kFleetTail[] =
    "\n"
    "One machine-parsable JSON summary line goes to stderr when done:\n"
    "  {\"tool\":\"mmlpt_fleet\",\"destinations\":..,\"packets\":..,\n"
    "   \"stop_set\":{..,\"union_digest\":\"..\"},\"metrics\":{..}}\n"
    "The stop_set object appears with --topology-cache; the metrics\n"
    "object lists the run's non-zero counters from the registry.\n";

constexpr const char kClientHead[] =
    "usage: mmlpt_client --socket PATH [options]\n"
    "\n"
    "  mmlpt_client --socket /tmp/mmlptd.sock --routes 64 --seed 7\n"
    "  mmlpt_client --socket /tmp/mmlptd.sock --status\n"
    "  mmlpt_client --socket /tmp/mmlptd.sock --metrics\n"
    "\n"
    "Submits one trace job to a running mmlptd and streams the JSONL\n"
    "result lines — byte-identical to `mmlpt_fleet --jobs 1` with the\n"
    "same job flags, but without owning a probing stack.\n"
    "\n"
    "options:\n";
constexpr const char kClientTail[] =
    "\n"
    "A summary line (outcome, lines, packets) goes to stderr; when the\n"
    "daemon runs a stop set, its machine-parsable stop-set summary is\n"
    "forwarded to stderr too. SIGINT cancels the in-flight job and exits\n"
    "130 once the daemon confirms the cancellation.\n";

constexpr const char kDaemonHead[] =
    "usage: mmlptd --socket PATH [options]\n"
    "\n"
    "  mmlptd --socket /tmp/mmlptd.sock --jobs 8 --pps 500 \\\n"
    "         --max-jobs 16 --tenant-pps 100 &\n"
    "  mmlpt_client --socket /tmp/mmlptd.sock --routes 64\n"
    "\n"
    "One daemon process owns the fleet scheduler, the fleet-wide rate\n"
    "limiter and the Doubletree stop set; clients submit jobs over the\n"
    "socket and stream back JSONL byte-identical to `mmlpt_fleet --jobs 1`\n"
    "with the same flags.\n"
    "\n"
    "options:\n";
constexpr const char kDaemonTail[] =
    "\n"
    "The fleet flags (--jobs/--pps/--burst) shape the SHARED scheduler:\n"
    "--pps bounds the sum of all tenants' probe traffic.\n"
    "--topology-cache/--stop-set install one shared stop set;\n"
    "discoveries are flushed to the store at shutdown.\n";

}  // namespace

// ---- entry point and usage text -----------------------------------------

const char* tool_name(Tool tool) {
  switch (tool) {
    case Tool::kTrace: return "mmlpt_trace";
    case Tool::kSurvey: return "mmlpt_survey";
    case Tool::kFleet: return "mmlpt_fleet";
    case Tool::kClient: return "mmlpt_client";
    case Tool::kDaemon: return "mmlptd";
  }
  throw ContractViolation("unknown tool");
}

std::string usage_text(Tool tool) {
  const auto shared = shared_option_table();
  switch (tool) {
    case Tool::kTrace:
      return kTraceHead + rows(shared, {"family", "algorithm"}) +
             block(trace_option_table) + rows(shared, {"rounds", "seed"}) +
             rows(fleet_option_table(), {"window"}) +
             block(stop_set_option_table) + block(obs_option_table) +
             rows(shared, {"version"});
    case Tool::kSurvey:
      return kSurveyHead + block(survey_option_table) +
             rows(shared, {"family", "routes", "distinct", "rounds", "seed",
                           "output", "version"}) +
             "\nfleet options (ip/router modes):\n" + fleet_options_usage();
    case Tool::kFleet:
      return kFleetHead + rows(shared, {"destinations", "routes", "family"}) +
             fleet_options_usage() +
             rows(shared, {"algorithm", "distinct", "shared-prefix", "seed",
                           "output", "version"}) +
             kFleetTail;
    case Tool::kClient:
      return kClientHead + block(client_option_table) +
             rows(shared, {"output", "destinations", "routes", "family",
                           "algorithm", "distinct", "shared-prefix", "seed"}) +
             rows(fleet_option_table(), {"window"}) +
             rows(shared, {"version"}) + kClientTail;
    case Tool::kDaemon:
      // A job's window comes from the client's spec, and the daemon
      // writes no JSONL file: of the fleet block it takes only these.
      return kDaemonHead + block(daemon_option_table) +
             rows(fleet_option_table(), {"jobs", "pps", "burst"}) +
             block(stop_set_option_table) +
             rows(shared, {"version"}) + kDaemonTail;
  }
  throw ContractViolation("unknown tool");
}

int cli_main(Tool tool, int argc, char** argv, int (*run)(const Flags&)) {
  const char* name = tool_name(tool);
  try {
    const Flags flags(argc, argv);
    const auto usage = usage_text(tool);
    // has(), not get_bool(): "--help <positional>" must still print usage.
    if (flags.has("help")) {
      std::fputs(usage.c_str(), stdout);
      return 0;
    }
    if (reject_unknown_flags(flags, usage, name)) return kUsageErrorExit;
    if (flags.has("version")) {
      std::printf("%s %s (%s)\n", name, MMLPT_GIT_DESCRIBE, MMLPT_BUILD_TYPE);
      return 0;
    }
    return run(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name, e.what());
    return 1;
  }
}

std::string format_option_block(std::span<const OptionSpec> options) {
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

std::set<std::string> usage_flag_names(std::string_view usage) {
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

bool reject_unknown_flags(const Flags& flags, const std::string& usage,
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

// ---- flag parsers --------------------------------------------------------

net::Family parse_family(const Flags& flags) {
  const std::string name = flags.get("family", "4");
  const auto family = net::parse_family_name(name);
  if (!family) {
    throw ConfigError("unknown --family '" + name + "' (4|6|ipv4|ipv6)");
  }
  return *family;
}

core::Algorithm parse_algorithm(const Flags& flags) {
  const std::string name = flags.get("algorithm", "mda-lite");
  if (name == "mda") return core::Algorithm::kMda;
  if (name == "mda-lite") return core::Algorithm::kMdaLite;
  if (name == "single-flow") return core::Algorithm::kSingleFlow;
  throw ConfigError("unknown --algorithm (mda|mda-lite|single-flow): " + name);
}

int parse_window(const Flags& flags) {
  const auto window = static_cast<int>(flags.get_int("window", 1));
  if (window < 1) throw ConfigError("--window must be >= 1");
  return window;
}

std::uint64_t parse_distinct(const Flags& flags, std::uint64_t fallback) {
  const auto distinct = flags.get_uint("distinct", fallback);
  if (distinct < 1) throw ConfigError("--distinct must be >= 1");
  return distinct;
}

int parse_rounds(const Flags& flags) {
  const auto rounds = static_cast<int>(flags.get_int("rounds", 10));
  if (rounds < 0) throw ConfigError("--rounds must be >= 0");
  return rounds;
}

core::TraceConfig parse_trace_config(const Flags& flags) {
  core::TraceConfig config;
  config.alpha = flags.get_double("alpha", 0.05);
  if (!(config.alpha > 0.0 && config.alpha < 1.0)) {
    throw ConfigError("--alpha must be in (0, 1)");
  }
  config.max_branching = static_cast<int>(flags.get_int("branching", 30));
  if (config.max_branching < 1) throw ConfigError("--branching must be >= 1");
  config.phi = static_cast<int>(flags.get_int("phi", 2));
  if (config.phi < 2) throw ConfigError("--phi must be >= 2");
  config.window = parse_window(flags);
  return config;
}

std::vector<std::string> read_destination_labels(const std::string& path) {
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

StopSetOptions parse_stop_set_options(const Flags& flags) {
  StopSetOptions options;
  options.topology_cache = flags.get("topology-cache", "");
  options.consult = flags.get_bool("stop-set", false);
  if (options.consult && options.topology_cache.empty()) {
    throw ConfigError("--stop-set requires --topology-cache <file>");
  }
  return options;
}

ObsOptions parse_obs_options(const Flags& flags) {
  return {flags.get("metrics-out", ""), flags.get("trace-events", "")};
}

FleetOptions parse_fleet_options(const Flags& flags) {
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

daemon::FleetJobSpec parse_job_spec(const Flags& flags) {
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
  spec.distinct = parse_distinct(flags, 100);
  spec.shared_prefix = static_cast<int>(flags.get_int("shared-prefix", 0));
  if (spec.shared_prefix < 0) {
    throw ConfigError("--shared-prefix must be >= 0");
  }
  spec.window = parse_window(flags);
  return spec;
}

DaemonCliOptions parse_daemon_options(const Flags& flags) {
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

// ---- run plumbing --------------------------------------------------------

ObsSession::ObsSession(ObsOptions options) : options_(std::move(options)) {
  if (!options_.trace_events.empty()) {
    recorder_ = std::make_unique<obs::TraceRecorder>();
    obs::set_recorder(recorder_.get());
  }
}

ObsSession::~ObsSession() {
  if (recorder_) obs::set_recorder(nullptr);
}

void ObsSession::finish() {
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

StreamingOutput::StreamingOutput(const std::string& path, bool fsync_lines) {
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

std::unique_ptr<StreamingOutput> make_output(const Flags& flags,
                                             std::ostream* fallback) {
  const auto path = flags.get("output", "");
  const bool fsync_lines = flags.get_bool("fsync", false);
  if (path.empty()) {
    if (fsync_lines) throw ConfigError("--fsync requires --output FILE");
    if (fallback == nullptr) return nullptr;
    return std::make_unique<StreamingOutput>(*fallback);
  }
  return std::make_unique<StreamingOutput>(path, fsync_lines);
}

int finish_interrupted(const char* tool, const SignalCancelScope& scope,
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

SummaryLine::SummaryLine(const char* tool) {
  w_.begin_object();
  w_.key("tool");
  w_.value(tool);
}

SummaryLine& SummaryLine::stop_set(const orchestrator::StopSetSession& session,
                                   std::uint64_t probes_saved,
                                   std::uint64_t traces_stopped) {
  if (!session.active()) return *this;
  w_.key("stop_set");
  session.write_summary(w_, probes_saved, traces_stopped);
  return *this;
}

SummaryLine& SummaryLine::metrics(const obs::MetricsRegistry& registry) {
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

void SummaryLine::print() {
  w_.end_object();
  std::fprintf(stderr, "%s\n", w_.view().c_str());
}

}  // namespace mmlpt::tools
