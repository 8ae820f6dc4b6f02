# Runs `${HERMESD} ${TRACE}` and passes only when hermesd exits with
# status 2 and names line ${LINE} on stderr. A crash reports a signal
# instead of an exit status, so it fails.
execute_process(COMMAND ${HERMESD} ${TRACE} RESULT_VARIABLE rc ERROR_VARIABLE err
                OUTPUT_QUIET)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "hermesd exited with '${rc}', want 2; stderr: ${err}")
endif()
if(NOT err MATCHES "trace line ${LINE}:")
  message(FATAL_ERROR "hermesd did not name line ${LINE}; stderr: ${err}")
endif()
message(STATUS "${err}")
