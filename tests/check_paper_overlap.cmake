# Overlapped sections print what they print alone: the stdout of
# `halsim_paper --only governor,fleet_drill --quick --threads 4` must
# equal the two sections' stdout run one after the other, in paper
# order (fleet_drill first).
#   cmake -DPAPER=<path to halsim_paper> -P check_paper_overlap.cmake
set(alone "")
foreach(section fleet_drill governor)
    execute_process(COMMAND ${PAPER} --only ${section} --quick
        RESULT_VARIABLE rc OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "--only ${section} --quick exited ${rc}")
    endif()
    string(APPEND alone "${out}")
endforeach()
execute_process(COMMAND ${PAPER} --only governor,fleet_drill --quick
        --threads 4
    RESULT_VARIABLE rc OUTPUT_VARIABLE together)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--only governor,fleet_drill exited ${rc}")
endif()
if(NOT together STREQUAL alone)
    message(FATAL_ERROR "overlapped stdout differs from the sections "
        "run alone:\n--- together ---\n${together}\n--- alone ---\n${alone}")
endif()
