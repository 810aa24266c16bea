// The traced pass: the same per-destination pipeline as
// daemon::run_fleet_job and survey::run_router_survey, assembled from the
// library's public pieces so spans and timing decorators can sit between
// them. Its lines must equal the entry points' lines byte for byte; that
// comparison is the benchmark's correctness oracle, and the in-memory
// results are checked against Fakeroute ground truth.
#ifndef MMLPT_PERFBENCH_REPLICA_H
#define MMLPT_PERFBENCH_REPLICA_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/stop_set.h"
#include "daemon/fleet_job.h"
#include "decorators.h"
#include "ledger.h"
#include "orchestrator/fleet.h"
#include "survey/router_survey.h"
#include "topology/generator.h"

namespace perfbench {

struct Instruments {
  Ledger* ledger = nullptr;
  DatagramSample* sample = nullptr;
  /// Sum of the engines' mmlpt_probe_retries_total counters.
  std::atomic<std::uint64_t>* retries = nullptr;
};

/// Per-destination outcomes of one replica job, summed.
struct PassTotals {
  std::uint64_t destinations = 0;
  std::uint64_t packets = 0;        // all datagrams, alias rounds included
  std::uint64_t trace_packets = 0;  // the IP-level trace's datagrams
  std::uint64_t stopped = 0;        // halted on a stop-set hit
  std::uint64_t probes_saved = 0;
  std::uint64_t not_reached = 0;    // neither reached nor stopped
  std::uint64_t topology_checked = 0;
  std::uint64_t topology_missed = 0;

  PassTotals& operator+=(const PassTotals& other);
};

using LineFn = std::function<void(std::size_t index, std::string line)>;

/// Lazily generated routes of one job, in task order, with a span around
/// each SurveyWorld::next_route (the same discipline as
/// survey::RouteFeeder).
class RouteStore {
 public:
  RouteStore(mmlpt::topo::SurveyWorld& world, std::size_t count,
             Ledger* ledger)
      : world_(&world), routes_(count), ledger_(ledger) {}

  [[nodiscard]] const mmlpt::topo::GroundTruth& get(std::size_t index);
  void release(std::size_t index);

 private:
  mmlpt::topo::SurveyWorld* world_;
  std::vector<mmlpt::topo::GroundTruth> routes_;  // pre-sized
  Ledger* ledger_;
  std::mutex mutex_;
  std::size_t generated_ = 0;
};

/// One daemon::run_fleet_job, traced. `request_base` offsets the span
/// request ids so several jobs can share one ledger.
[[nodiscard]] PassTotals replica_fleet_job(
    mmlpt::orchestrator::FleetScheduler& fleet, mmlpt::core::StopSet* stop_set,
    const mmlpt::daemon::FleetJobSpec& spec,
    const mmlpt::fakeroute::SimConfig& sim, const Instruments& instruments,
    std::uint64_t request_base, const LineFn& on_line);

/// One survey::run_router_survey, traced.
[[nodiscard]] PassTotals replica_router_survey(
    mmlpt::orchestrator::FleetScheduler& fleet,
    const mmlpt::survey::RouterSurveyConfig& config,
    const Instruments& instruments, std::uint64_t request_base,
    const LineFn& on_line);

/// MDA-Lite alone over the routes and simulator seeds of
/// replica_router_survey(config): the reference the alias layer's cost is
/// measured against (spans of kind kLiteRerun).
void lite_rerun(mmlpt::orchestrator::FleetScheduler& fleet,
                const mmlpt::survey::RouterSurveyConfig& config,
                const Instruments& instruments, std::uint64_t request_base);

/// The per-layer figures of one traced pass.
struct LayerTimes {
  double world_ns = 0;      // SurveyWorld construction
  double gen_ns = 0;        // next_route spans
  double transport_ns = 0;  // TimedQueue submit + poll
  double stop_contains_ns = 0;
  double stop_query_ns = 0;
  double stop_record_ns = 0;
  double core_self_ns = 0;  // tracer spans minus transport/stop-set time
  double trace_ns = 0;      // tracer spans, whole
  double lite_ns = 0;       // MDA-Lite reruns
  double json_ns = 0;
  double emit_ns = 0;
  double orchestrator_self_ns = 0;  // task + callback self, line envelope
  double check_ns = 0;      // the benchmark's own oracle work
  double callback_ns = 0;   // task + on_result spans, whole
  std::uint64_t submits = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t contains_calls = 0;
  std::uint64_t contains_hits = 0;
  std::uint64_t query_calls = 0;
  std::uint64_t record_calls = 0;
  std::uint64_t lines = 0;
  std::vector<double> reorder_wait_ms;  // task end -> its on_result
};

[[nodiscard]] LayerTimes layer_times(const Ledger& ledger);

}  // namespace perfbench

#endif  // MMLPT_PERFBENCH_REPLICA_H
