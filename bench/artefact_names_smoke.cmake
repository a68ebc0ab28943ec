# Artefact-name smoke for one harness (ctest name:
# fig15_distinct_artefact_names).
#
# Runs HARNESS on the points FILTER selects with --trace and asserts
# the JSON it writes:
#   1. names a distinct trace_file in every record that has one (the
#      panels of one harness may share a dataset/label key, and two
#      points writing one file lose the first point's trace),
#   2. names at least two of them (the filter selects one key in two
#      panels),
#   3. names only files that exist in the trace directory.
#
# Usage: cmake -DHARNESS=<exe> -DFILTER=<regex> -DDIR=<dir>
#              -P artefact_names_smoke.cmake

cmake_minimum_required(VERSION 3.19) # string(JSON), if(IN_LIST)

if(NOT HARNESS OR NOT FILTER OR NOT DIR)
    message(FATAL_ERROR "HARNESS, FILTER and DIR must all be set")
endif()

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(JSON "${DIR}/report.json")

execute_process(COMMAND "${HARNESS}" --filter "${FILTER}"
                        --trace "${DIR}" --json "${JSON}"
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
string(JSON num_records LENGTH "${content}" records)
math(EXPR last "${num_records} - 1")
set(names "")
foreach(i RANGE ${last})
    string(JSON name ERROR_VARIABLE absent
           GET "${content}" records ${i} trace_file)
    if(absent)
        continue()
    endif()
    if(name IN_LIST names)
        message(FATAL_ERROR "two records in '${JSON}' name '${name}'")
    endif()
    if(NOT EXISTS "${DIR}/${name}")
        message(FATAL_ERROR "'${JSON}' names '${name}', which was "
                            "not written")
    endif()
    list(APPEND names "${name}")
endforeach()

list(LENGTH names count)
if(count LESS 2)
    message(FATAL_ERROR "'${JSON}' names ${count} trace file(s); "
                        "expected at least 2")
endif()

message(STATUS "${count} distinct trace files verified in ${DIR}")
