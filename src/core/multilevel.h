// Multilevel MDA-Lite Paris Traceroute (Sec. 4): run the MDA-Lite trace,
// harvest alias-resolution evidence from the trace's own replies (round
// 0, "for free"), then refine alias sets over up to 10 additional rounds
// of probing: round 1 adds one direct (echo) probe per address for the
// Network Fingerprinting signature plus 30 indirect probes per address
// for the MBT; each later round adds 30 more indirect probes.
#ifndef MMLPT_CORE_MULTILEVEL_H
#define MMLPT_CORE_MULTILEVEL_H

#include <map>
#include <vector>

#include "alias/resolver.h"
#include "core/mda_lite.h"
#include "core/trace_log.h"
#include "topology/graph.h"

namespace mmlpt::core {

/// Indirect (MBT) probes per address in every alias round.
inline constexpr int kMbtSamplesPerRound = 30;

struct MultilevelConfig {
  TraceConfig trace;
  int rounds = 10;
  alias::AliasResolver::Config resolver;
};

/// Alias state captured after each probing round.
struct RoundSnapshot {
  /// hop -> alias sets over that hop's addresses.
  std::map<int, std::vector<alias::AliasSet>> sets_by_hop;
  std::uint64_t packets = 0;  ///< cumulative packets when the round ended
};

struct MultilevelResult {
  TraceResult trace;            ///< the IP-level MDA-Lite trace
  std::vector<RoundSnapshot> rounds;  ///< index r = state after round r
  topo::MultipathGraph router_graph;  ///< final round's merged view
  std::uint64_t total_packets = 0;
  /// False on IPv6: the MBT needs the IP-ID header field, which v6 does
  /// not have. The tracer then degrades to IP-level output (one empty
  /// round-0 snapshot, router_graph == ip graph) and the JSON carries an
  /// explicit "alias": "unsupported-family" marker.
  bool alias_supported = true;
  /// Final evidence store (classify_set for Table 2 comparisons).
  alias::AliasResolver resolver;

  [[nodiscard]] const RoundSnapshot& final_round() const {
    return rounds.back();
  }
};

class MultilevelTracer {
 public:
  MultilevelTracer(probe::ProbeEngine& engine, MultilevelConfig config)
      : engine_(&engine), config_(config) {}

  [[nodiscard]] MultilevelResult run();

  /// Merge a discovered IP-level graph per `sets_by_hop`: each accepted
  /// alias set collapses to one vertex (lowest member address). Exposed
  /// for the survey's router-level analysis.
  [[nodiscard]] static topo::MultipathGraph merge_by_aliases(
      const topo::MultipathGraph& ip_graph,
      const std::map<int, std::vector<alias::AliasSet>>& sets_by_hop);

 private:
  /// Observer bridging trace replies into round-0 evidence.
  class Collector;

  probe::ProbeEngine* engine_;
  MultilevelConfig config_;
};

}  // namespace mmlpt::core

#endif  // MMLPT_CORE_MULTILEVEL_H
