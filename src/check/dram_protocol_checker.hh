/**
 * @file
 * Independent JEDEC protocol checker for DRAM command streams.
 *
 * The checker taps the DimmTimingModel command path and re-validates
 * every command against the timing parameters from scratch: it keeps
 * its own shadow of bank/chip/rank state derived only from the
 * observed command stream, never from the timing model's internal
 * bookkeeping. A controller bug that lets an illegal command through
 * therefore cannot hide: the shadow model panics with a dump of the
 * recent command history.
 *
 * Checked invariants (all in terms of the raw command ticks):
 *   - every command (REF included) issues on a bus-clock edge, i.e.
 *     at a multiple of tCK;
 *   - ACT only to a closed bank; tRC, tRP (after PRE), tRRD_S/L,
 *     tFAW (at most 4 ACTs per chip per rolling window);
 *   - PRE no earlier than tRAS after ACT, tRTP after RD,
 *     write-recovery (tCWL + tBL + tWR) after WR;
 *   - RD/WR only to the open row (never to a closed or mismatched
 *     row), no earlier than tRCD after ACT, tCCD_S/L after the
 *     previous column command on the chip, tWTR after write data,
 *     JEDEC read-to-write turnaround;
 *   - no data-lane overlap: consecutive bursts on one chip's DQ
 *     lanes must not overlap in time;
 *   - no command to a rank inside its tRFC refresh window; REF
 *     spacing between tRFC and (1 + max_postponed) * tREFI;
 *   - C/A bus occupancy: at most one command per bus clock per bus
 *     (REF excluded: the model treats it as a controller-internal
 *     operation with an implicit precharge-all).
 */

#ifndef BEACON_CHECK_DRAM_PROTOCOL_CHECKER_HH
#define BEACON_CHECK_DRAM_PROTOCOL_CHECKER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "dram/timing.hh"
#include "dram/types.hh"

namespace beacon
{

/** Shadow model validating one DIMM's command stream. */
class DramProtocolChecker
{
  public:
    /** Command-history ring kept for violation dumps. */
    static constexpr unsigned history_depth = 64;

    /**
     * Refreshes a rank may postpone before the checker flags a tREFI
     * violation (JEDEC DDR4 allows postponing up to 8).
     */
    static constexpr unsigned max_postponed_refreshes = 8;

    DramProtocolChecker(std::string name, const DimmGeometry &geom,
                        const DramTimingParams &timing);

    /** Observe one command; panics on a protocol violation. */
    void observe(const DramCommand &cmd);

    /**
     * End-of-run validation: every rank's refresh must not be
     * overdue at @p now.
     */
    void finalize(Tick now) const;

    /** Commands observed so far. */
    std::uint64_t commandsObserved() const { return n_commands; }

    /** Violations abort the process, so a live checker reads 0. */
    std::uint64_t violations() const { return n_violations; }

  private:
    struct ShadowBank
    {
        std::int64_t open_row = -1;
        Tick last_act = 0;      //!< most recent ACT (valid: has_act)
        Tick act_legal = 0;     //!< earliest next ACT (tRP / tRC)
        Tick pre_earliest = 0;  //!< earliest legal PRE (tRAS etc.)
        Tick col_legal = 0;     //!< earliest RD/WR (tRCD)
        bool has_act = false;
    };

    struct ShadowChip
    {
        std::deque<Tick> act_times; //!< recent ACTs (tFAW window)
        Tick last_act = 0;
        unsigned last_act_bg = 0;
        bool has_act = false;
        Tick last_col = 0;
        unsigned last_col_bg = 0;
        bool has_col = false;
    };

    struct ShadowRank
    {
        Tick ref_start = 0;
        Tick ref_end = 0;       //!< rank blocked until here
        bool has_ref = false;
        Tick wr_data_end = 0;   //!< for tWTR
        bool has_wr = false;
        Tick last_rd = 0;       //!< for read-to-write turnaround
        bool has_rd = false;
    };

    ShadowBank &bank(unsigned rank, unsigned chip, unsigned flat);
    ShadowChip &chip(unsigned rank, unsigned chip);
    ShadowRank &rank(unsigned r) { return rank_state[r]; }

    void checkAct(const DramCommand &cmd);
    void checkPre(const DramCommand &cmd);
    void checkColumn(const DramCommand &cmd);
    void checkRefresh(const DramCommand &cmd);

    /** Common per-command gates: bus-clock edge, refresh window,
     *  C/A bus spacing. */
    void checkClockEdge(const DramCommand &cmd);
    void checkRankAvailable(const DramCommand &cmd);
    void checkCmdBus(const DramCommand &cmd);

    /** Record @p cmd in the history ring. */
    void record(const DramCommand &cmd);

    /** Panic with @p why and the recent command history. */
    [[noreturn]] void fail(const DramCommand &cmd,
                           const std::string &why);

    std::string historyDump() const;

    /** nCK parameter @p ncycles in ticks. */
    Tick ck(unsigned ncycles) const { return Tick{ncycles} * tp.t_ck_ps; }

    std::string name;
    DimmGeometry geom;
    DramTimingParams tp;

    std::vector<ShadowBank> bank_state; //!< [rank][chip][flat_bank]
    std::vector<ShadowChip> chip_state; //!< [rank][chip]
    std::vector<ShadowRank> rank_state; //!< [rank]
    std::vector<Tick> lane_data_end;    //!< [lane]
    std::vector<Tick> bus_last_cmd;     //!< [bus]
    std::vector<bool> bus_has_cmd;      //!< [bus]

    std::deque<DramCommand> history;
    std::uint64_t n_commands = 0;
    std::uint64_t n_violations = 0;
};

} // namespace beacon

#endif // BEACON_CHECK_DRAM_PROTOCOL_CHECKER_HH
