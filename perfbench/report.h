// Turning a traced pass into the per-layer metrics, and the end-to-end
// metrics every workload reports.
#ifndef MMLPT_PERFBENCH_REPORT_H
#define MMLPT_PERFBENCH_REPORT_H

#include <cstdint>
#include <vector>

#include "common.h"
#include "decorators.h"
#include "replica.h"

namespace perfbench {

/// Everything an untraced (timed) pass measured.
struct EndToEnd {
  std::vector<double> setup_s;
  double wall_ns = 0;
  double cpu_ns = 0;
  std::uint64_t destinations = 0;
  std::uint64_t packets = 0;
  std::vector<double> request_ms;     // one per job
  std::vector<double> first_line_ms;  // one per job
  double peak_heap_mib = 0;
  // From the oracle: non-stopped traces compared with ground truth.
  std::uint64_t topology_checked = 0;
  std::uint64_t topology_missed = 0;
};

void add_end_to_end(Report& report, const EndToEnd& e2e);

/// What the traced pass measured beyond its ledger.
struct TracedPass {
  double worker_ns = 0;       // pass wall time x busy threads
  double traced_wall_ns = 0;  // the traced pass, same work as...
  double untraced_wall_ns = 0;  // ...this untraced measurement
  std::uint64_t destinations = 0;
  std::uint64_t retries = 0;
  double alias_ms_per_dest = 0;
  double alias_probes_per_dest = 0;
  double probes_saved_per_dest = 0;
  double store_load_ms = 0;
  std::size_t store_load_samples = 0;
  double daemon_overhead_ms = 0;
  double refused_ratio = 0;
  std::size_t overhead_samples = 0;
};

void add_per_layer(Report& report, const LayerTimes& times,
                   const TracedPass& pass, const DatagramSample& sample);

}  // namespace perfbench

#endif  // MMLPT_PERFBENCH_REPORT_H
