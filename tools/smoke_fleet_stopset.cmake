# Smoke script for the Doubletree stop set: a cold record-only fleet run
# warms a fresh topology cache, then a consulting re-run over the same
# shared-prefix world must report probes saved. Driven by add_test in
# tools/CMakeLists.txt (variables: FLEET_TOOL, CACHE_FILE, OUTPUT_FILE).
#
# Gates, read from the two JSON summary lines the runs print to stderr:
#   * the warm run sends at least 1.2x fewer packets than the cold run
#     (cold packets / warm packets >= 1.2) — Doubletree's probe saving;
#   * both runs discover the same topology (equal union digests), so the
#     saving is not bought with missed hops;
#   * the cold digest equals kColdDigest, the value this fixed command
#     has always printed, so a change to the digest's definition (or to
#     what the cold run discovers) cannot pass unnoticed;
#   * the summaries say "transport":"sim": the fleet probes Fakeroute.
file(REMOVE "${CACHE_FILE}")
set(kColdDigest "cbd8d820aae4aefa")

# Runs the fleet over the shared-prefix world with the extra flags in
# ARGN and sets <out_var> to its JSON summary line.
function(run_fleet label out_var)
  execute_process(
    COMMAND "${FLEET_TOOL}" --routes 6 --distinct 5 --jobs 3
      --shared-prefix 3 --topology-cache "${CACHE_FILE}" ${ARGN}
      --output "${OUTPUT_FILE}"
    ERROR_VARIABLE stderr
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label} fleet run failed (${rc}): ${stderr}")
  endif()
  string(REGEX MATCH "{\"tool\":[^\n]*" summary "${stderr}")
  if(summary STREQUAL "")
    message(FATAL_ERROR "${label} run printed no summary line: ${stderr}")
  endif()
  string(JSON transport GET "${summary}" transport)
  if(NOT transport STREQUAL "sim")
    message(FATAL_ERROR
      "${label} run reports transport '${transport}', want 'sim'")
  endif()
  set(${out_var} "${summary}" PARENT_SCOPE)
endfunction()

run_fleet(cold cold_summary)
if(NOT EXISTS "${CACHE_FILE}")
  message(FATAL_ERROR "record-only run did not write the topology cache")
endif()
run_fleet(warm warm_summary --stop-set)

string(JSON cold_packets GET "${cold_summary}" packets)
string(JSON warm_packets GET "${warm_summary}" packets)
string(JSON cold_digest GET "${cold_summary}" stop_set union_digest)
string(JSON warm_digest GET "${warm_summary}" stop_set union_digest)
string(JSON visible_hops GET "${warm_summary}" stop_set visible_hops)
message(STATUS "cold ${cold_packets} packets, warm ${warm_packets} packets, "
  "digests ${cold_digest} / ${warm_digest}, warm visible hops "
  "${visible_hops}")

if(warm_packets LESS_EQUAL 0)
  message(FATAL_ERROR "warm run sent no packets: ${warm_summary}")
endif()
# cold / warm >= 1.2, in integer arithmetic.
math(EXPR cold_scaled "${cold_packets} * 10")
math(EXPR warm_scaled "${warm_packets} * 12")
if(cold_scaled LESS warm_scaled)
  message(FATAL_ERROR "stop set saved too little: cold ${cold_packets} "
    "packets, warm ${warm_packets} (want cold/warm >= 1.2)")
endif()
if(NOT cold_digest STREQUAL warm_digest)
  message(FATAL_ERROR "warm run discovered a different topology: union "
    "digest ${warm_digest}, cold ${cold_digest}")
endif()
if(NOT cold_digest STREQUAL kColdDigest)
  message(FATAL_ERROR "cold run's union digest ${cold_digest} differs from "
    "the recorded ${kColdDigest} for this fixed command")
endif()
