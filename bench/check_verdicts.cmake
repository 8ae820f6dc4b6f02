# Passes only when ${BENCH} exits 0, prints no FAIL verdict, and prints
# "verdict <bench>.<claim>: PASS" for each claim in ${CLAIMS}
# (comma-separated). A crash reports a signal, not a status, so it fails.
execute_process(COMMAND ${BENCH} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
get_filename_component(name ${BENCH} NAME)
string(REPLACE "," ";" claims "${CLAIMS}")
foreach(claim IN LISTS claims)
  if(NOT out MATCHES "verdict ${name}\\.${claim}: PASS")
    string(APPEND missing " ${claim}")
  endif()
endforeach()
string(REGEX MATCHALL "verdict [^\n]*: FAIL[^\n]*" failed "${out}")
if(NOT rc STREQUAL "0" OR failed OR missing)
  message(FATAL_ERROR "exit status '${rc}' (want 0); FAIL lines: ${failed}; no PASS line:${missing}")
endif()
