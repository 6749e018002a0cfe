# Perf-smoke counter pin: the tiered pipeline's deterministic work on the
# eight case studies. Runs each under --pipeline=simplify,bounded,z3
# --solver-stats and compares the per-tier `tier N ...` lines and the
# `bounded work:` line exactly against the expected file, so a regression
# in bounded work fails loudly while timings are never compared.
#
#   cmake -DRELAXC=<relaxc> -DEXAMPLES=<examples/programs> \
#         -DEXPECTED=<tests/golden/tiered_counters.txt> \
#         [-DREGENERATE=ON] -P tiered_counters.cmake
#
# With -DREGENERATE=ON the script rewrites the expected file instead of
# comparing against it (run it from a Z3 build).

set(ACTUAL "")
foreach(EX swish water lu task_skip sampling memoize water_modular
           shared_callee)
  execute_process(
    COMMAND "${RELAXC}" verify "${EXAMPLES}/${EX}.rlx"
            --pipeline=simplify,bounded,z3 --solver-stats
    OUTPUT_VARIABLE OUT
    RESULT_VARIABLE RC
    TIMEOUT 60) # kills a hung run; ctest's own timeout would not
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "${EX}: exit ${RC}\n${OUT}")
  endif()
  string(REGEX MATCHALL "\n  (tier [0-9]+ [^\n]*|bounded work: [^\n]*)"
         LINES "${OUT}")
  if(NOT LINES)
    message(FATAL_ERROR "${EX}: no counter lines in the stats:\n${OUT}")
  endif()
  foreach(L ${LINES})
    string(STRIP "${L}" L)
    string(APPEND ACTUAL "${EX}: ${L}\n")
  endforeach()
endforeach()

if(REGENERATE)
  file(WRITE "${EXPECTED}" "${ACTUAL}")
  message(STATUS "wrote ${EXPECTED}")
  return()
endif()
file(READ "${EXPECTED}" WANT)
if(NOT ACTUAL STREQUAL WANT)
  message(FATAL_ERROR "tiered counters differ from ${EXPECTED}\n"
                      "--- expected\n${WANT}--- actual\n${ACTUAL}")
endif()
message(STATUS "tiered counters match ${EXPECTED}")
