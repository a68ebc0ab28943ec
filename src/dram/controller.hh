/**
 * @file
 * Event-driven DRAM controller (FR-FCFS) for one DIMM.
 *
 * Requests arrive via enqueue(); the controller issues PRE/ACT/column
 * commands against the DimmTimingModel, honours refresh, and invokes
 * each request's completion callback at data-completion time.
 *
 * The scheduler is first-ready FR-FCFS over a window from the queue
 * head: row-hit column commands are preferred, ties broken by age.
 * Refresh is per-rank every tREFI and may be postponed while the rank
 * drains (JEDEC permits postponing refreshes; we do not model the
 * 8-deep postpone limit).
 *
 * Wake-ups: while requests are queued, a decision event fires on
 * every clock edge (the chain fixes where each decision sits among
 * other same-tick events). A wake-up rescans the window only when
 * the answer can have changed: the state is dirty (a request
 * arrived, a command issued, or a refresh started) or the clock has
 * reached the soonest earliest-issue tick of the last scan. Other
 * edges cost O(1) and re-arm at min(soonest, now + tCK). See
 * docs/simulation_model.md, "DRAM controller wake-ups".
 */

#ifndef BEACON_DRAM_CONTROLLER_HH
#define BEACON_DRAM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "check/checker_config.hh"
#include "dram/dimm_timing.hh"
#include "dram/types.hh"
#include "obs/trace.hh"
#include "sim/sim_object.hh"

namespace beacon
{

/** Row-buffer management policy. */
enum class PagePolicy : std::uint8_t
{
    Open,   //!< keep rows open; precharge on conflict
    Closed, //!< auto-precharge with the last burst of each request
};

class DramProtocolChecker;

/** Tunables for a DramController. */
struct DramControllerParams
{
    bool enable_refresh = true;
    PagePolicy page_policy = PagePolicy::Open;
    /** Verification switch; arms the shadow protocol checker. */
    CheckerConfig checkers;
};

/** FR-FCFS controller in front of one DIMM. */
class DramController : public SimObject
{
  public:
    DramController(const std::string &name, EventQueue &eq,
                   StatRegistry &stats, const DimmGeometry &geom,
                   const DramTimingParams &timing,
                   const DramControllerParams &params = {});
    ~DramController() override;

    /** Hand a request to the controller; callback fires on data end. */
    void enqueue(MemRequest req);

    /** Requests accepted but not yet completed. */
    std::size_t inFlight() const { return queue.size(); }

    /** The underlying timing model (activity counters, row state). */
    const DimmTimingModel &device() const { return model; }

    /** Completed read/write request counts. */
    std::uint64_t readsCompleted() const { return reads_done; }
    std::uint64_t writesCompleted() const { return writes_done; }

    /** The protocol checker, or nullptr when not armed. */
    const DramProtocolChecker *checker() const
    {
        return protocol_checker.get();
    }

    /**
     * End-of-run checker validation (refresh staleness); a no-op
     * when the checker is off or refresh is disabled.
     */
    void finalizeCheck() const;

  private:
    /** FR-FCFS lookahead depth from the queue head. */
    static constexpr unsigned scan_window = 32;

    struct ActiveRequest
    {
        MemRequest req;
        unsigned bursts_issued = 0;
    };

    /**
     * One scheduling round: issue all commands ready this tick, then
     * arm the next wake-up while requests remain.
     */
    void decide();

    /**
     * Issue at most one command. A scan that finds nothing ready
     * records the soonest earliest-issue tick and clears the dirty
     * flag; it schedules nothing.
     * @return true if a command was issued.
     */
    bool decideOnce();

    /** Ensure a decision event is pending no later than @p t. */
    void scheduleDecision(Tick t);

    /** Per-rank refresh bookkeeping. */
    void refreshTick(unsigned rank);

    /** Emit a trace span for one C/A bus command. */
    void traceCommand(const DramCommand &cmd);

    DimmTimingModel model;
    DramControllerParams params;
    std::unique_ptr<DramProtocolChecker> protocol_checker;

    std::deque<ActiveRequest> queue;
    /** Minimum earliest-issue tick over the window at the last scan. */
    Tick soonest = max_tick;
    /** State changed since the last scan, so `soonest` is stale. */
    bool dirty = true;
    bool decision_pending = false;
    EventId decision_event = 0;
    Tick decision_time = max_tick;

    std::uint64_t reads_done = 0;
    std::uint64_t writes_done = 0;

    // Tracing (null when off): one track per (rank, bank group) for
    // ACT/PRE/column spans, one per rank for refresh, one for the
    // controller's queue-depth counter.
    obs::TraceSink *trace = nullptr;
    obs::TrackId trace_ctrl = 0;
    std::vector<obs::TrackId> trace_bg;
    std::vector<obs::TrackId> trace_rank;
    Tick trace_dur_act = 0;
    Tick trace_dur_pre = 0;
    Tick trace_dur_col = 0;
    Tick trace_dur_ref = 0;

    Counter &stat_reads;
    Counter &stat_writes;
    Counter &stat_acts;
    Counter &stat_row_hits;
    Counter &stat_row_conflicts;
    SampleStat &stat_latency;
};

} // namespace beacon

#endif // BEACON_DRAM_CONTROLLER_HH
