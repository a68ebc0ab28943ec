# --filter / --self-profile smoke for one harness (ctest names:
# fig16_filter_self_profile, fig17_filter_self_profile).
#
# Runs HARNESS on the points FILTER selects with --self-profile and
# asserts the JSON it writes:
#   1. holds no non-finite number (a derived value over points the
#      filter skipped used to come out as -nan),
#   2. carries every derived key in KEYS with a finite value (the
#      selected points all ran),
#   3. carries a self_profile block (the accelerator points are
#      built with the flag-derived telemetry config).
#
# Usage: cmake -DHARNESS=<exe> -DFILTER=<regex> -DJSON=<path>
#              [-DKEYS=<key;key...>] -P filter_self_profile_smoke.cmake

if(NOT HARNESS OR NOT FILTER OR NOT JSON)
    message(FATAL_ERROR "HARNESS, FILTER and JSON must all be set")
endif()

file(REMOVE "${JSON}")

execute_process(COMMAND "${HARNESS}" --filter "${FILTER}"
                        --json "${JSON}" --self-profile
                RESULT_VARIABLE rv
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${HARNESS} failed (${rv})\n${err}")
endif()
if(NOT EXISTS "${JSON}")
    message(FATAL_ERROR "${HARNESS} wrote no JSON '${JSON}'")
endif()

file(READ "${JSON}" content)

if(content MATCHES "[:,[ ]-?(nan|inf)")
    message(FATAL_ERROR "'${JSON}' holds a non-finite number")
endif()

foreach(key ${KEYS})
    if(NOT content MATCHES "\"${key}\": [0-9]")
        message(FATAL_ERROR "'${JSON}' lacks a finite ${key}")
    endif()
endforeach()

if(NOT content MATCHES "\"self_profile\": {")
    message(FATAL_ERROR "'${JSON}' has no self_profile block")
endif()

message(STATUS "filtered JSON verified: ${JSON}")
