# Smoke script for the usage-error exit: the command line after "--"
# names a flag the tool does not take, and the tool must exit with
# status 2 (tools::kUsageErrorExit) and say "unknown flag --<FLAG>" on
# stderr. A bare non-zero check would also pass a tool that failed for
# another reason, such as a configuration error (exit 1). Driven by
# add_test in tools/CMakeLists.txt:
#   cmake -DFLAG=<name> -P smoke_rejects_flag.cmake -- <tool> <args...>
set(command "")
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(command STREQUAL "" OR NOT DEFINED FLAG)
  message(FATAL_ERROR "usage: cmake -DFLAG=<name> -P ${CMAKE_SCRIPT_MODE_FILE}"
    " -- <tool> <args...>")
endif()

execute_process(
  COMMAND ${command}
  OUTPUT_QUIET
  ERROR_VARIABLE stderr
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "exit status ${rc}, want 2: ${stderr}")
endif()
string(FIND "${stderr}" "unknown flag --${FLAG}\n" at)
if(at LESS 0)
  message(FATAL_ERROR "stderr does not name --${FLAG}: ${stderr}")
endif()
