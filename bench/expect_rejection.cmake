# Runs a bench binary that must refuse its arguments: it passes only when
# the bench exits with EXIT and its stderr matches PATTERN.
#
# Usage (via add_test in bench/CMakeLists.txt):
#   cmake -DBENCH=<path> -DARGS="--coherence;msi" -DEXIT=2
#         -DPATTERN=<regex> -P expect_rejection.cmake

if(NOT DEFINED BENCH OR NOT DEFINED EXIT OR NOT DEFINED PATTERN)
  message(FATAL_ERROR
    "expect_rejection.cmake needs -DBENCH=..., -DEXIT=..., -DPATTERN=...")
endif()

execute_process(
  COMMAND ${BENCH} ${ARGS}
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err)
if(NOT RC STREQUAL EXIT)
  message(FATAL_ERROR "${BENCH} exited with '${RC}', expected ${EXIT}\n"
                      "stderr: ${Err}")
endif()
if(NOT Err MATCHES "${PATTERN}")
  message(FATAL_ERROR "${BENCH} stderr does not match '${PATTERN}':\n${Err}")
endif()
