# fig16 --filter / --self-profile smoke (ctest name:
# fig16_filter_self_profile).
#
# Runs fig16_prealign on one dataset with --self-profile and asserts
# the JSON it writes:
#   1. holds no non-finite number (a geomean over points the filter
#      skipped used to come out as -nan),
#   2. carries the four geomeans (every Pt point ran),
#   3. carries a self_profile block (the accelerator points are
#      built with the flag-derived telemetry config).
#
# Usage: cmake -DHARNESS=<exe> -DJSON=<path> -P fig16_filter_smoke.cmake

if(NOT HARNESS OR NOT JSON)
    message(FATAL_ERROR "HARNESS and JSON must both be set")
endif()

file(REMOVE "${JSON}")

execute_process(COMMAND "${HARNESS}" --filter "Pt/.*" --json "${JSON}"
                        --self-profile
                RESULT_VARIABLE rv
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "fig16_prealign failed (${rv})\n${err}")
endif()
if(NOT EXISTS "${JSON}")
    message(FATAL_ERROR "fig16_prealign wrote no JSON '${JSON}'")
endif()

file(READ "${JSON}" content)

if(content MATCHES "[:,[ ]-?(nan|inf)")
    message(FATAL_ERROR "'${JSON}' holds a non-finite number")
endif()

foreach(key beacon_d_perf_geomean beacon_s_perf_geomean
            beacon_d_energy_geomean beacon_s_energy_geomean)
    if(NOT content MATCHES "\"${key}\": [0-9]")
        message(FATAL_ERROR "'${JSON}' lacks a finite ${key}")
    endif()
endforeach()

if(NOT content MATCHES "\"self_profile\": {")
    message(FATAL_ERROR "'${JSON}' has no self_profile block")
endif()

message(STATUS "fig16 filtered JSON verified: ${JSON}")
