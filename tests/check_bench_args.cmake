# Argument contract of halsim_paper, checked without simulating (each
# call is cut off after 10 s; a driver that ignored its arguments
# would start simulating instead).
#   cmake -DPAPER=<path to halsim_paper> -P check_bench_args.cmake
# checks the whole contract;
#   cmake -DPAPER=<path> -DSECTION=<name> -P check_bench_args.cmake
# checks that SECTION resolves under --only and is listed by --help.

# Run PAPER with the remaining arguments; want exit status `want` and
# stdout+stderr matching `pattern`.
function(expect want pattern)
    execute_process(COMMAND ${PAPER} ${ARGN} TIMEOUT 10
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL want)
        message(FATAL_ERROR "halsim_paper ${ARGN} exited ${rc}, want ${want}:\n${err}")
    endif()
    if(NOT "${out}${err}" MATCHES "${pattern}")
        message(FATAL_ERROR "halsim_paper ${ARGN} printed no '${pattern}':\n${out}${err}")
    endif()
endfunction()

if(DEFINED SECTION)
    expect(2 "unknown argument '--frobnicate'.*usage:"
        --only ${SECTION} --frobnicate)
    expect(0 " ${SECTION} " --help)
    return()
endif()

expect(2 "unknown argument '--frobnicate'.*usage:" --frobnicate)
expect(0 "table1_capabilities.*fig9_hal_sweep.*governor" --help)
expect(2 "unknown section 'fig4_rate_sweep'" --only fig4_rate_sweep)
expect(2 "need exactly one sweep section"
    --only fleet_drill,governor --quick --json unused.json)
expect(2 "need exactly one sweep section"
    --only table1_capabilities --json unused.json)
expect(2 "section 'table2_slo' has no quick set"
    --only table2_slo --quick)
