# Runs `${HERMESD} ${TRACE}` and passes only when hermesd exits with
# status 2, names line ${LINE} on stderr and prints nothing to stdout:
# the trace is refused before anything runs. A crash reports a signal
# instead of an exit status, so it fails.
execute_process(COMMAND ${HERMESD} ${TRACE} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "hermesd exited with '${rc}', want 2; stderr: ${err}")
endif()
if(NOT err MATCHES "trace line ${LINE}:")
  message(FATAL_ERROR "hermesd did not name line ${LINE}; stderr: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "hermesd ran before refusing the trace; stdout: ${out}")
endif()
message(STATUS "${err}")
