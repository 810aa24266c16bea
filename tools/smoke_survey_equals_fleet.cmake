# Smoke script: the IP survey and the fleet CLI trace generated routes
# through one run, survey::run_route_fleet, so `mmlpt_survey --mode ip`
# and `mmlpt_fleet --algorithm mda` over the same world and seed must
# write identical JSONL bytes to --output, on IPv4 serially and on IPv6
# with four workers and 8-probe windows. Driven by add_test in
# tools/CMakeLists.txt (variables: SURVEY_TOOL, FLEET_TOOL, OUTPUT_DIR).
file(MAKE_DIRECTORY "${OUTPUT_DIR}")

# Runs <tool> with the shared world flags plus ARGN, writing <output>.
function(run_tool tool output)
  execute_process(
    COMMAND "${tool}" --routes 40 --distinct 20 --seed 3 ${ARGN}
      --output "${output}"
    OUTPUT_QUIET
    ERROR_VARIABLE stderr
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tool} failed (${rc}): ${stderr}")
  endif()
  file(SIZE "${output}" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "${tool} wrote an empty ${output}")
  endif()
endfunction()

# Runs both tools with the extra flags in ARGN and requires equal bytes.
function(compare name)
  set(survey_out "${OUTPUT_DIR}/survey_${name}.jsonl")
  set(fleet_out "${OUTPUT_DIR}/fleet_${name}.jsonl")
  run_tool("${SURVEY_TOOL}" "${survey_out}" --mode ip ${ARGN})
  run_tool("${FLEET_TOOL}" "${fleet_out}" --algorithm mda ${ARGN})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${survey_out}" "${fleet_out}"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${name}: mmlpt_survey --mode ip and mmlpt_fleet "
      "--algorithm mda wrote different JSONL (${survey_out}, ${fleet_out})")
  endif()
  message(STATUS "${name}: identical JSONL")
endfunction()

compare(v4)
compare(v6 -6 --jobs 4 --window 8)
