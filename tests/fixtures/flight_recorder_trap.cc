/**
 * @file
 * Throwaway fixture for the flight-recorder trap smoke test
 * (FlightRecorderTrapSmoke, driven by flight_recorder_smoke.cmake).
 *
 * Attaches a FlightRecorder to a plain EventQueue, warms the ring
 * with legitimate traffic, then fails a BEACON_CHECK inside an event
 * callback. Expected outcome: the check funnels through panicImpl,
 * the panic hook writes the post-mortem JSON to argv[1], and the
 * process aborts (nonzero exit). Reaching the end of main means the
 * check never fired, which the driving script treats as a failure.
 */

#include <cstdio>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "sim/event_queue.hh"

int
main(int argc, char **argv)
{
    using namespace beacon;
    const char *path =
        argc > 1 ? argv[1] : "beacon-flightrec-trap.json";
    obs::FlightRecorder recorder(path);

    EventQueue eq;
    eq.setFlightRecorder(&recorder);

    // Legitimate traffic first, so the dump shows a ring of events
    // preceding the trapping one.
    for (Tick t = 1; t <= 32; ++t)
        eq.schedule(t, [] {});
    eq.schedule(50, [&eq] {
        BEACON_CHECK(eq.now() < 50, "flight-recorder smoke trap");
    });
    eq.run();
    std::fprintf(stderr, "fixture error: the check never fired\n");
    return 0;
}
