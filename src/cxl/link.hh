/**
 * @file
 * Full-duplex point-to-point link (CXL lane bundle or DDR channel).
 */

#ifndef BEACON_CXL_LINK_HH
#define BEACON_CXL_LINK_HH

#include <cstdint>
#include <functional>
#include <string>

#include "check/link_checker.hh"
#include "cxl/bandwidth_server.hh"
#include "obs/trace.hh"
#include "sim/sim_object.hh"

namespace beacon
{

/** Direction over a full-duplex link. */
enum class LinkDir
{
    Downstream, //!< towards the device / DIMM
    Upstream,   //!< towards the host / switch root
};

/** Link configuration. */
struct LinkParams
{
    double gb_per_s = 32.0;  //!< per-direction bandwidth
    Tick latency = 25000;    //!< propagation + PHY latency (25 ns)
    /** Idealized communication: infinite bandwidth, zero latency. */
    bool ideal = false;
};

/**
 * A full-duplex link with independent per-direction occupancy.
 *
 * send() reserves the direction's bandwidth and invokes the callback
 * at arrival time (serialisation + propagation latency).
 */
class CxlLink : public SimObject
{
  public:
    CxlLink(const std::string &name, EventQueue &eq,
            StatRegistry &stats, const LinkParams &params)
        : SimObject(name, eq, stats),
          p(params),
          down(params.ideal ? -1.0 : params.gb_per_s),
          up(params.ideal ? -1.0 : params.gb_per_s),
          stat_bytes(stat("bytes")),
          stat_transfers(stat("transfers"))
    {
        if (obs::TraceSink *sink = BEACON_TRACE_SINK(eq)) {
            trace = sink;
            trace_down = sink->track(name + ".down");
            trace_up = sink->track(name + ".up");
        }
    }

    /**
     * Transfer @p bytes in direction @p dir; @p on_arrival fires when
     * the last byte arrives at the far end.
     */
    void
    send(LinkDir dir, Bytes bytes,
         std::function<void(Tick)> on_arrival)
    {
        BandwidthServer &server =
            dir == LinkDir::Downstream ? down : up;
        const Tick depart = curTick();
        const Tick serialized = server.accept(depart, bytes);
        const Tick arrive = serialized + (p.ideal ? 0 : p.latency);
        if (checker) {
            checker->onTransfer(dir == LinkDir::Downstream
                                    ? checker_chan_down
                                    : checker_chan_up,
                                depart, serialized, arrive, bytes,
                                server.rateGBps(), server.ideal());
        }
        stat_bytes += double(bytes.value());
        ++stat_transfers;
        if (trace) {
            // Wire-occupancy span: the window the flit serialises
            // over the lane bundle (zero length on ideal links).
            const Tick busy_start =
                server.ideal()
                    ? serialized
                    : serialized -
                          transferTime(bytes, server.rateGBps());
            trace->completeWithId(dir == LinkDir::Downstream
                                      ? trace_down
                                      : trace_up,
                                  "flit", busy_start, serialized,
                                  bytes.value());
        }
        eq.schedule(arrive,
                    [cb = std::move(on_arrival), arrive] { cb(arrive); },
                    EventCat::Cxl);
    }

    /**
     * Attach the verification layer: both directions register as
     * shadow channels and every transfer is cross-checked.
     */
    void
    attachChecker(CxlLinkChecker &link_checker)
    {
        checker = &link_checker;
        checker_chan_down = link_checker.registerChannel(name() + ".down");
        checker_chan_up = link_checker.registerChannel(name() + ".up");
    }

    /** Re-validate cumulative per-direction busy time (end of run). */
    void
    checkConservation() const
    {
        if (!checker || p.ideal)
            return;
        checker->checkBusyTicks(checker_chan_down, down.busyTicks());
        checker->checkBusyTicks(checker_chan_up, up.busyTicks());
    }

    /** Earliest tick a new transfer in @p dir would finish arriving. */
    Tick
    nextArrival(LinkDir dir, Bytes bytes) const
    {
        const BandwidthServer &server =
            dir == LinkDir::Downstream ? down : up;
        if (server.ideal())
            return curTick();
        const Tick start = std::max(curTick(), server.busyUntil());
        return start + transferTime(bytes, server.rateGBps()) +
               p.latency;
    }

    const LinkParams &params() const { return p; }
    const BandwidthServer &downstream() const { return down; }
    const BandwidthServer &upstream() const { return up; }

    /** Total bytes moved in both directions. */
    Bytes
    totalBytes() const
    {
        return down.totalBytes() + up.totalBytes();
    }

  private:
    LinkParams p;
    BandwidthServer down;
    BandwidthServer up;
    CxlLinkChecker *checker = nullptr;
    unsigned checker_chan_down = 0;
    unsigned checker_chan_up = 0;
    obs::TraceSink *trace = nullptr;
    obs::TrackId trace_down = 0;
    obs::TrackId trace_up = 0;
    Counter &stat_bytes;
    Counter &stat_transfers;
};

} // namespace beacon

#endif // BEACON_CXL_LINK_HH
