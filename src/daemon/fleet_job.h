// One fleet trace job, runnable against a LONG-LIVED FleetScheduler: the
// job both the mmlpt_fleet CLI and the mmlptd daemon run. Both feed a
// FleetJobSpec through run_fleet_job(), so a job served over the daemon
// socket produces byte-identical JSONL to a standalone `mmlpt_fleet
// --jobs 1` run with the same spec; only the delivery differs
// (ResultSink vs ResultLine frames). The run itself is
// survey::run_route_fleet (survey/route_fleet.h), which the surveys use
// too; this file adds the spec, the stop-set configuration and the job's
// counters.
//
// The scheduler is a parameter, not a local: the daemon constructs ONE
// FleetScheduler (owning the fleet-wide RateLimiter) and runs every
// tenant's jobs through it, concurrently — run_streaming is
// re-entrant (see fleet.h), per-job determinism comes from the spec's
// seed alone, and the shared limiter makes "packets per second" mean
// DAEMON packets across all tenants.
#ifndef MMLPT_DAEMON_FLEET_JOB_H
#define MMLPT_DAEMON_FLEET_JOB_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/validation.h"
#include "fakeroute/simulator.h"
#include "net/ip_address.h"
#include "orchestrator/fleet.h"
#include "orchestrator/stop_set.h"
#include "probe/cancel.h"

namespace mmlpt::daemon {

/// Everything that determines a fleet job's output bytes. Mirrors the
/// mmlpt_fleet CLI flags; carried verbatim in JobRequest frames.
struct FleetJobSpec {
  /// Per-destination labels (the --destinations list). Empty = `routes`
  /// synthetic destinations labelled by their generated addresses.
  std::vector<std::string> labels;
  std::uint64_t routes = 64;  ///< destination count when labels is empty
  core::Algorithm algorithm = core::Algorithm::kMdaLite;
  net::Family family = net::Family::kIpv4;
  std::uint64_t seed = 1;
  std::uint64_t distinct = 100;  ///< distinct diamond templates
  int shared_prefix = 0;         ///< common leading routers per route
  int window = 1;                ///< per-trace probe window

  /// Destination count this spec resolves to.
  [[nodiscard]] std::size_t destination_count() const noexcept {
    return labels.empty() ? static_cast<std::size_t>(routes) : labels.size();
  }

  friend bool operator==(const FleetJobSpec&, const FleetJobSpec&) = default;
};

/// Aggregates mirroring the mmlpt_fleet stderr summary.
struct FleetJobCounters {
  std::size_t destinations = 0;
  std::uint64_t packets = 0;
  std::uint64_t reached = 0;
  std::uint64_t diamonds = 0;
  std::uint64_t distinct_diamonds = 0;
  std::uint64_t probes_saved_by_stop_set = 0;
  std::uint64_t traces_stopped = 0;
};

/// Per-job hooks and decorations around the shared scheduler.
struct FleetJobHooks {
  /// Ordered delivery of each JSONL destination line (no trailing
  /// newline): fires in strict index order, serialized, while the fleet
  /// runs — exactly FleetScheduler's on_result contract.
  std::function<void(std::size_t index, std::string line)> on_line;
  /// Fires after each ordered merge with the running aggregates
  /// (`merged` destinations done so far) — the daemon turns these into
  /// Progress frames. Same serialization as on_line.
  std::function<void(std::size_t merged, const FleetJobCounters& so_far)>
      on_progress;
  /// Per-tenant token bucket layered on the scheduler's fleet-wide
  /// limiter (daemon admission control); nullptr = no tenant cap.
  orchestrator::RateLimiter* tenant_limiter = nullptr;
  /// Cooperative cancellation: when it fires, in-flight tickets resolve
  /// through TransportQueue::cancel and run_fleet_job throws
  /// probe::CanceledError. nullptr = not cancelable.
  probe::CancelToken* cancel = nullptr;
};

/// Run one job through `fleet`. `stop_set` may be null (feature off);
/// when active it seeds every trace's Doubletree config exactly like the
/// CLIs do. Throws probe::CanceledError when hooks.cancel fires —
/// counters up to that point are lost by design (a canceled job has no
/// summary).
[[nodiscard]] FleetJobCounters run_fleet_job(
    orchestrator::FleetScheduler& fleet,
    orchestrator::StopSetSession* stop_set, const FleetJobSpec& spec,
    const fakeroute::SimConfig& sim, const FleetJobHooks& hooks);

}  // namespace mmlpt::daemon

#endif  // MMLPT_DAEMON_FLEET_JOB_H
