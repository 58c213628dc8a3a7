# One example program run: it exits RC (default 0) and prints, on
# stdout or stderr, what EXPECT matches (default: anything).
#   cmake -DEXAMPLE=<path to example binary> [-DARGS=<a;b;...>]
#         [-DRC=<status>] [-DEXPECT=<regex>] -P run_example.cmake
if(NOT DEFINED RC)
    set(RC 0)
endif()
execute_process(COMMAND ${EXAMPLE} ${ARGS}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL RC)
    message(FATAL_ERROR "${EXAMPLE} ${ARGS} exited ${rc}, want ${RC}: ${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
    message(FATAL_ERROR "${EXAMPLE} output does not match '${EXPECT}':\n${out}${err}")
endif()
