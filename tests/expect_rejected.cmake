# Runs `${CMD} ${ARG}` and passes only when it exits with status 2 and
# its stderr matches ${MATCH}. A crash reports a signal instead of an
# exit status, so it fails.
execute_process(COMMAND ${CMD} ${ARG} RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "'${ARG}' exited with '${rc}', want 2; stderr: ${err}")
endif()
if(NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "stderr does not name '${MATCH}': ${err}")
endif()
message(STATUS "${err}")
