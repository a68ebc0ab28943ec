# --json smoke for one harness (ctest name: table1_json_schema).
#
# Runs HARNESS with --json and asserts the file it writes parses as
# JSON and declares the beacon-bench-3 schema.
#
# Usage: cmake -DHARNESS=<exe> -DJSON=<path> -P json_schema_smoke.cmake

if(NOT HARNESS OR NOT JSON)
    message(FATAL_ERROR "HARNESS and JSON must both be set")
endif()

file(REMOVE "${JSON}")

execute_process(COMMAND "${HARNESS}" --json "${JSON}"
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
string(JSON schema ERROR_VARIABLE parse_error GET "${content}" schema)
if(parse_error)
    message(FATAL_ERROR "'${JSON}' is not valid JSON: ${parse_error}")
endif()
if(NOT schema STREQUAL "beacon-bench-3")
    message(FATAL_ERROR "'${JSON}' schema is '${schema}', "
                        "not beacon-bench-3")
endif()

message(STATUS "JSON schema verified: ${JSON}")
