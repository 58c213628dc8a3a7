# Argument contract of one bench binary, run without simulating:
# an unknown flag exits 2 with usage on stderr, and --help exits 0.
# A bench that ignores its arguments would start simulating instead,
# so each call is cut off after 10 s.
#   cmake -DBENCH=<path to bench binary> -P check_bench_args.cmake
execute_process(COMMAND ${BENCH} --frobnicate TIMEOUT 10
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${BENCH} --frobnicate exited ${rc}, want 2")
endif()
if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "${BENCH} --frobnicate printed no usage: ${err}")
endif()
execute_process(COMMAND ${BENCH} --help TIMEOUT 10
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --help exited ${rc}, want 0")
endif()
