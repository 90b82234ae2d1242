# ctest runner (see bench/CMakeLists.txt, label "config"): runs a bench
# binary with one malformed GPC_* variable and requires that it fails loudly
# — the expected exit status, and the variable's name in the output —
# instead of running with a configuration nobody asked for.
#
# Expects -DBENCH_BIN, -DENV (one NAME=VALUE assignment), -DEXPECT (a
# regular expression the combined stdout/stderr must match) and -DRC (the
# exit status the binary must end with).
foreach(var BENCH_BIN ENV EXPECT RC)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "config_check.cmake: missing -D${var}")
  endif()
endforeach()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "${ENV}" "${BENCH_BIN}" --quick
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc STREQUAL "${RC}")
  message(FATAL_ERROR "${ENV}: the benchmark exited ${rc} instead of ${RC}:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR
    "${ENV}: output does not match '${EXPECT}' (rc=${rc}):\n${out}")
endif()
message(STATUS "${ENV}: rc=${rc}, rejected as expected")
