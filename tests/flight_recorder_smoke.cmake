# Flight-recorder trap smoke (ctest name: FlightRecorderTrapSmoke).
#
# Runs the flight_recorder_trap fixture, which fails a BEACON_CHECK
# inside an event callback. Asserts the post-mortem contract of
# docs/observability.md:
#   1. the fixture dies (the failed BEACON_CHECK aborts the process),
#   2. the panic hook wrote the dump JSON before aborting,
#   3. the dump carries the beacon-flightrec-1 schema tag and a
#      non-empty ring of events preceding the trap.
#
# Usage: cmake -DFIXTURE=<exe> -DDUMP=<path> -P flight_recorder_smoke.cmake

if(NOT FIXTURE OR NOT DUMP)
    message(FATAL_ERROR "FIXTURE and DUMP must both be set")
endif()

file(REMOVE "${DUMP}")

execute_process(COMMAND "${FIXTURE}" "${DUMP}"
                RESULT_VARIABLE fixture_rv
                OUTPUT_VARIABLE fixture_out
                ERROR_VARIABLE fixture_err)

if(fixture_rv EQUAL 0)
    message(FATAL_ERROR
        "fixture exited 0; the check never fired\n"
        "${fixture_err}")
endif()

if(NOT EXISTS "${DUMP}")
    message(FATAL_ERROR
        "trap did not write the post-mortem dump '${DUMP}'\n"
        "${fixture_err}")
endif()

file(READ "${DUMP}" dump_content)

if(NOT dump_content MATCHES "\"schema\": \"beacon-flightrec-1\"")
    message(FATAL_ERROR
        "dump '${DUMP}' is missing the beacon-flightrec-1 schema tag")
endif()

if(NOT dump_content MATCHES "\"reason\": \"panic\"")
    message(FATAL_ERROR
        "dump '${DUMP}' does not record the panic reason")
endif()

if(NOT dump_content MATCHES "\"detail\": \"[^\"]*flight-recorder smoke trap")
    message(FATAL_ERROR
        "dump '${DUMP}' detail does not name the failed check")
endif()

# The fixture ran 32 warm-up events before the trap, so the ring must
# contain records.
if(NOT dump_content MATCHES "\"records\":\\[{")
    message(FATAL_ERROR
        "dump '${DUMP}' contains no ring records before the trap")
endif()

message(STATUS "flight-recorder dump verified: ${DUMP}")
