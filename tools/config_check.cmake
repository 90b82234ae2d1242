# ctest runner (see bench/CMakeLists.txt, label "config"): runs a bench
# binary with one malformed GPC_* variable and requires that it fails loudly
# — a non-zero exit, and the variable's name in the output — instead of
# running with a configuration nobody asked for.
#
# Expects -DBENCH_BIN, -DENV (one NAME=VALUE assignment) and -DEXPECT (a
# regular expression the combined stdout/stderr must match).
foreach(var BENCH_BIN ENV EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "config_check.cmake: missing -D${var}")
  endif()
endforeach()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "${ENV}" "${BENCH_BIN}" --quick
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(rc STREQUAL "0")
  message(FATAL_ERROR "${ENV}: the benchmark exited 0 instead of failing")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR
    "${ENV}: output does not match '${EXPECT}' (rc=${rc}):\n${out}")
endif()
message(STATUS "${ENV}: rc=${rc}, rejected as expected")
