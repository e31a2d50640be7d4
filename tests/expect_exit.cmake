# Runs `${CLI} ${INPUT} ${FLAG}` and fails unless it exits with
# ${EXPECT_EXIT} and its output contains ${EXPECT_MESSAGE}. ctest's own
# pass rule tells only zero from nonzero.
#   cmake -DCLI=... -DINPUT=... -DFLAG=... -DEXPECT_EXIT=2
#         -DEXPECT_MESSAGE=... -P expect_exit.cmake
execute_process(COMMAND "${CLI}" "${INPUT}" "${FLAG}"
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit ${code}, expected ${EXPECT_EXIT}\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT_MESSAGE}" found)
if(found EQUAL -1)
  message(FATAL_ERROR "output lacks '${EXPECT_MESSAGE}':\n${out}${err}")
endif()
