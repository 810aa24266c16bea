// JSON export of trace results — the stable machine-readable output a
// downstream pipeline (or the paper's public-dataset format) consumes.
#ifndef MMLPT_CORE_TRACE_JSON_H
#define MMLPT_CORE_TRACE_JSON_H

#include <string>

#include "core/multilevel.h"
#include "core/trace_log.h"
#include "topology/graph.h"

namespace mmlpt::core {

/// Full trace result: graph, packet count, flags, discovery events.
[[nodiscard]] std::string trace_to_json(const TraceResult& result);

/// Multilevel result: IP graph, router graph, per-round alias sets.
[[nodiscard]] std::string multilevel_to_json(const MultilevelResult& result);

/// JSONL destination-envelope fragment with the stop-set probe
/// accounting: `"probes_sent":N,"probes_saved_by_stop_set":M`. Empty when
/// the trace ran without a consulted stop set — the keys are only present
/// when the feature is active, so disabled output stays byte-stable.
[[nodiscard]] std::string stop_set_envelope_fields(const TraceResult& result);

/// Same for a multilevel trace (probes_sent counts the alias rounds too).
[[nodiscard]] std::string stop_set_envelope_fields(
    const MultilevelResult& result);

}  // namespace mmlpt::core

#endif  // MMLPT_CORE_TRACE_JSON_H
