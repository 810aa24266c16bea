// mmlptd — the measurement daemon. One privileged process owns the
// probing stack (fleet scheduler, fleet-wide rate limiter, Doubletree
// stop set) and serves trace jobs to many cheap unprivileged clients over
// a framed unix-socket protocol; jobs probe the Fakeroute simulator.
// Clients get byte-identical JSONL to a standalone `mmlpt_fleet --jobs 1`
// run with the same job flags; the daemon adds admission control,
// per-tenant rate limits and mid-trace cancellation on top.
//
// SIGINT/SIGTERM drain-and-exit: stop accepting, let running jobs
// finish, flush the stop set, exit 0.
#include <cerrno>
#include <cstdio>
#include <string>

#include <poll.h>

#include "cli_common.h"
#include "common/error.h"
#include "common/flags.h"
#include "daemon/server.h"
#include "daemon/signals.h"

using namespace mmlpt;

namespace {

constexpr const char kUsagePrefix[] =
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
constexpr const char kUsageSuffix[] =
    "  --version            print version and exit\n"
    "\n"
    "The fleet flags (--jobs/--pps/--burst) shape the SHARED scheduler:\n"
    "--pps bounds the sum of all tenants' probe traffic.\n"
    "--topology-cache/--stop-set install one shared stop set;\n"
    "discoveries are flushed to the store at shutdown.\n";

std::string usage_text() {
  return kUsagePrefix + tools::daemon_options_usage() +
         tools::format_option_block(tools::fleet_option_table()) +
         tools::stop_set_options_usage() + kUsageSuffix;
}

int run_daemon(const Flags& flags) {
  const auto options = tools::parse_daemon_options(flags);
  const auto fleet_options = tools::parse_fleet_options(flags);

  daemon::DaemonConfig config;
  config.socket_path = options.socket;
  config.fleet = fleet_options;
  config.admission = options.admission;
  config.topology_cache = fleet_options.stop_set.topology_cache;
  config.consult_stop_set = fleet_options.stop_set.consult;

  // Install the handlers BEFORE the listener exists so there is no
  // window where a signal kills us with the socket file left behind.
  auto& shutdown = daemon::ShutdownSignal::install();

  daemon::Daemon daemon(config);
  daemon.start();
  std::fprintf(stderr,
               "mmlptd: listening on %s (workers=%d, pps=%.0f, "
               "max_jobs=%d, max_jobs_per_tenant=%d, transport=sim)\n",
               config.socket_path.c_str(), config.fleet.jobs,
               config.fleet.pps, config.admission.max_jobs_total,
               config.admission.max_jobs_per_tenant);

  struct pollfd signal_fd = {shutdown.fd(), POLLIN, 0};
  while (::poll(&signal_fd, 1, -1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "mmlptd: signal %d, draining and exiting\n",
               shutdown.signal());
  daemon.stop();  // drain running jobs, flush the stop set, unlink socket
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    const auto usage = usage_text();
    if (flags.has("help")) {
      std::fputs(usage.c_str(), stdout);
      return 0;
    }
    if (tools::reject_unknown_flags(flags, usage, "mmlptd")) {
      return tools::kUsageErrorExit;
    }
    if (tools::handle_version(flags, "mmlptd")) return 0;
    return run_daemon(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mmlptd: %s\n", e.what());
    return 1;
  }
}
