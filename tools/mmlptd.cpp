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

#include <poll.h>

#include "cli_common.h"
#include "common/flags.h"
#include "daemon/server.h"
#include "daemon/signals.h"

using namespace mmlpt;

namespace {

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
  return tools::cli_main(tools::Tool::kDaemon, argc, argv, run_daemon);
}
