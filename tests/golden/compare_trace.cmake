# Runs a bench binary twice with --trace — once at --jobs 1, once at
# --jobs 4 — and demands three byte-identities:
#
#   1. both stdouts match the (untraced) golden: --trace never changes
#      simulated results or bench output,
#   2. every .trace.json / .series.csv file from run A matches its
#      counterpart from run B: trace files are named by submission index,
#      so their bytes must not depend on how many simulations run at once,
#   3. at least one trace file pair exists (the flag actually traced).
#
# Usage (via add_test in tests/CMakeLists.txt):
#   cmake -DBENCH=<path> -DARGS="--apps;wupwise,swim"
#         -DGOLDEN=<path> -DWORK_DIR=<scratch dir> -P compare_trace.cmake

if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "compare_trace.cmake needs -DBENCH=..., -DGOLDEN=..., -DWORK_DIR=...")
endif()
if(NOT DEFINED ARGS)
  set(ARGS "")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/jobs1" "${WORK_DIR}/jobs4")

file(READ ${GOLDEN} EXPECTED)
foreach(Jobs 1 4)
  set(Name "jobs${Jobs}")
  execute_process(
    COMMAND ${BENCH} ${ARGS} --jobs ${Jobs} --trace
            --trace-out "${WORK_DIR}/${Name}/t"
    OUTPUT_VARIABLE ACTUAL
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "${BENCH} (${Name}) exited with ${RC}")
  endif()
  if(NOT ACTUAL STREQUAL EXPECTED)
    file(WRITE "${WORK_DIR}/${Name}.stdout.actual" "${ACTUAL}")
    message(FATAL_ERROR
      "traced ${Name} stdout differs from ${GOLDEN} — tracing perturbed the "
      "bench output (actual in ${WORK_DIR}/${Name}.stdout.actual)")
  endif()
endforeach()

file(GLOB Jobs1Files RELATIVE "${WORK_DIR}/jobs1" "${WORK_DIR}/jobs1/t.*")
list(LENGTH Jobs1Files NumFiles)
if(NumFiles EQUAL 0)
  message(FATAL_ERROR "--trace produced no trace files under ${WORK_DIR}")
endif()

foreach(File ${Jobs1Files})
  if(NOT EXISTS "${WORK_DIR}/jobs4/${File}")
    message(FATAL_ERROR "run at --jobs 4 did not write ${File}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/jobs1/${File}" "${WORK_DIR}/jobs4/${File}"
    RESULT_VARIABLE Cmp)
  if(NOT Cmp EQUAL 0)
    message(FATAL_ERROR
      "${File} differs between --jobs 1 and 4 — trace bytes depend on "
      "job parallelism (kept under ${WORK_DIR})")
  endif()
endforeach()
