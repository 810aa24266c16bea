// mmlpt_client — the thin client for mmlptd. Connects to the daemon's
// unix socket, submits one fleet trace job (the same flags as
// mmlpt_fleet) and streams the result JSONL to stdout or --output; or,
// with --status, prints the daemon's machine-parsable status document.
//
// Exit codes: 0 job completed, 1 job failed / local error, 3 job
// rejected by admission control, 130 job canceled (SIGINT or
// --cancel-after-lines).
#include <cstdio>
#include <fstream>
#include <iostream>

#include "cli_common.h"
#include "common/error.h"
#include "common/flags.h"
#include "daemon/client.h"
#include "daemon/signals.h"

using namespace mmlpt;

namespace {

const char* outcome_name(daemon::JobOutcome outcome) {
  switch (outcome) {
    case daemon::JobOutcome::kOk:
      return "ok";
    case daemon::JobOutcome::kRejected:
      return "rejected";
    case daemon::JobOutcome::kCanceled:
      return "canceled";
    case daemon::JobOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

int run_client(const Flags& flags) {
  const std::string socket_path = flags.get("socket", "");
  if (socket_path.empty()) throw ConfigError("--socket PATH is required");
  const std::string tenant = flags.get("tenant", "default");

  daemon::Client client(socket_path, tenant);

  if (flags.get_bool("status", false)) {
    std::printf("%s\n", client.server_status().c_str());
    return 0;
  }

  if (flags.get_bool("metrics", false)) {
    // Prometheus text straight from the daemon's registry — what a
    // scrape job or an operator's curl-over-socat would ingest.
    std::fputs(client.metrics().c_str(), stdout);
    return 0;
  }

  const auto spec = tools::parse_job_spec(flags);

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (flags.has("output")) {
    const auto path = flags.get("output", "");
    file.open(path);
    if (!file) throw SystemError("cannot open --output file: " + path);
    out = &file;
  }

  // SIGINT mid-job turns into a Cancel frame: the daemon resolves the
  // trace's in-flight probes and answers with a canceled status.
  auto& shutdown = daemon::ShutdownSignal::install();

  daemon::ClientRunOptions options;
  options.cancel_fd = shutdown.fd();
  options.cancel_after_lines = flags.get_uint("cancel-after-lines", 0);
  options.on_line = [&](const std::string& line) { *out << line << '\n'; };

  const auto result = client.run_job(spec, options);
  out->flush();

  if (!result.stop_set_summary.empty()) {
    std::fprintf(stderr, "mmlpt_client: %s\n",
                 result.stop_set_summary.c_str());
  }
  std::fprintf(stderr, "mmlpt_client: job %s, %llu lines, %llu packets%s%s\n",
               outcome_name(result.outcome),
               static_cast<unsigned long long>(result.lines),
               static_cast<unsigned long long>(result.packets),
               result.message.empty() ? "" : ": ",
               result.message.c_str());
  switch (result.outcome) {
    case daemon::JobOutcome::kOk:
      return 0;
    case daemon::JobOutcome::kRejected:
      return 3;
    case daemon::JobOutcome::kCanceled:
      return 130;
    case daemon::JobOutcome::kFailed:
      return 1;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  return tools::cli_main(tools::Tool::kClient, argc, argv, run_client);
}
