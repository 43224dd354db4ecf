# Runs one command and fails unless it exits with exactly the expected code;
# a death by signal never matches. With MATCH set, stdout must also match
# that regex. The command's arguments are joined by '|' so that add_test
# passes them through as one value:
#
#   cmake -DCMD="swcaffe_time|--threads|abc" -DEXPECT=2 -P expect_exit.cmake
string(REPLACE "|" ";" argv "${CMD}")
execute_process(COMMAND ${argv} RESULT_VARIABLE code OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${code}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "'${argv}' exited '${code}', expected ${EXPECT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "'${argv}' stdout does not match '${MATCH}':\n${out}")
endif()
