# A single `--solver=bounded` backend is the final tier of
# `--pipeline=bounded`: the same budgets and the same exhaustion rule.
# This script runs every case study both ways and fails unless each
# obligation's status (in report order) and the exit code agree.
#
#   cmake -DRELAXC=<relaxc> -DEXAMPLES=<examples/programs> \
#         -P solver_bounded_identity.cmake

foreach(EX swish water lu task_skip sampling memoize water_modular
           shared_callee)
  foreach(MODE solver pipeline)
    execute_process(
      COMMAND "${RELAXC}" verify "${EXAMPLES}/${EX}.rlx" --${MODE}=bounded
              --verbose
      OUTPUT_VARIABLE OUT
      RESULT_VARIABLE RC
      TIMEOUT 60) # kills a hung run; ctest's own timeout would not
    if(NOT RC MATCHES "^[0-9]+$")
      message(FATAL_ERROR "${EX} --${MODE}=bounded: ${RC}")
    endif()
    string(REGEX MATCHALL "\n  \\[[a-z-]+\\]" STATUSES "${OUT}")
    string(REPLACE "\n  " "" STATUSES "${STATUSES}")
    if(NOT STATUSES)
      message(FATAL_ERROR "${EX} --${MODE}=bounded: no obligations in the "
                          "report (exit ${RC}):\n${OUT}")
    endif()
    list(JOIN STATUSES " " STATUSES)
    set(${MODE} "exit ${RC}: ${STATUSES}")
  endforeach()
  if(NOT solver STREQUAL pipeline)
    message(FATAL_ERROR "${EX}: --solver=bounded and --pipeline=bounded "
                        "disagree\n  solver:   ${solver}\n"
                        "  pipeline: ${pipeline}")
  endif()
  message(STATUS "${EX}: ${solver}")
endforeach()
