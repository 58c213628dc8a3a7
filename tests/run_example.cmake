# One example program exits 0 and prints what EXPECT matches.
#   cmake -DEXAMPLE=<path to example binary> -DEXPECT=<regex>
#         -P run_example.cmake
execute_process(COMMAND ${EXAMPLE}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXAMPLE} exited ${rc}, want 0: ${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "${EXAMPLE} output does not match '${EXPECT}':\n${out}")
endif()
