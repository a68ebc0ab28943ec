/**
 * @file
 * Cycle-level DDR4 timing state for one DIMM.
 *
 * The model tracks per-chip bank state (with individual chip-select,
 * as in MEDAL and BEACON's CXLG-DIMMs, different chips of the same
 * rank may have different rows open in the same bank), per-chip
 * activate windows (tRRD / tFAW), per-chip-position data-lane
 * occupancy (lanes are shared across ranks), a shared command bus,
 * and per-rank refresh blocking.
 *
 * The model is purely functional over time: callers ask for the
 * earliest tick at which a command could legally issue and then
 * commit the command at a chosen tick. It owns no events, which makes
 * it directly unit-testable.
 */

#ifndef BEACON_DRAM_DIMM_TIMING_HH
#define BEACON_DRAM_DIMM_TIMING_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "dram/timing.hh"
#include "dram/types.hh"

namespace beacon
{

/** Cycle-level timing state machine for one DIMM. */
class DimmTimingModel
{
  public:
    DimmTimingModel(const DimmGeometry &geom,
                    const DramTimingParams &timing);

    const DimmGeometry &geometry() const { return geom; }
    const DramTimingParams &timing() const { return tp; }

    /**
     * Observer invoked for every committed command, in issue order.
     * The verification layer taps this to shadow-validate the
     * command stream (see src/check/dram_protocol_checker.hh); an
     * unset tap costs one branch per command.
     */
    using CommandTap = std::function<void(const DramCommand &)>;

    /** Install (or clear, by passing nullptr) the command tap. */
    void setCommandTap(CommandTap tap) { command_tap = std::move(tap); }

    /** Clock period in ticks. */
    Tick tCK() const { return tp.t_ck_ps; }

    /** Row currently open in (rank, chip, bank), or -1. */
    std::int64_t openRow(unsigned rank, unsigned chip,
                         unsigned flat_bank) const;

    /** True when every chip in the group has @p row open. */
    bool rowHit(const DramCoord &coord,
                unsigned banks_per_group) const;

    /** True when every chip in the group has the bank closed. */
    bool bankClosed(const DramCoord &coord,
                    unsigned banks_per_group) const;

    /** Earliest tick >= @p t at which ACT can issue for the group. */
    Tick earliestAct(const DramCoord &coord, Tick t) const;

    /** Earliest tick >= @p t at which PRE can issue for the group. */
    Tick earliestPre(const DramCoord &coord, Tick t) const;

    /**
     * Earliest tick >= @p t at which a RD/WR burst can issue for the
     * group (requires the row to be open and tRCD satisfied).
     */
    Tick earliestColumn(const DramCoord &coord, bool is_write,
                        Tick t) const;

    /** Commit an ACT at @p t (must satisfy earliestAct). */
    void issueAct(const DramCoord &coord, Tick t);

    /** Commit a PRE at @p t. */
    void issuePre(const DramCoord &coord, Tick t);

    /**
     * Commit a RD/WR burst at @p t. With @p auto_precharge the bank
     * closes itself after the access (closed-page policy): the row
     * is gone and the next ACT waits out tRTP/tWR + tRP.
     * @return the tick at which the data transfer finishes.
     */
    Tick issueColumn(const DramCoord &coord, bool is_write, Tick t,
                     bool auto_precharge = false);

    /**
     * Begin a refresh on @p rank at @p t: closes every row in the
     * rank and blocks it until the returned completion tick.
     */
    Tick issueRefresh(unsigned rank, Tick t);

    /** Earliest tick a refresh may start on @p rank (banks idle). */
    Tick earliestRefresh(unsigned rank, Tick t) const;

    /** Tick until which rank @p rank is blocked by refresh. */
    Tick refreshBusyUntil(unsigned rank) const
    {
        return ranks[rank].ref_busy_until;
    }

    // --- Activity counters (read by energy model / stats) ---
    std::uint64_t numActs() const { return n_act; }
    std::uint64_t numPres() const { return n_pre; }
    /** Per-chip ACT/PRE operations (an ACT to a group of g chips
     *  opens g per-chip rows and costs g times the energy). */
    std::uint64_t numActChipOps() const { return n_act_chips; }
    std::uint64_t numPreChipOps() const { return n_pre_chips; }
    std::uint64_t numReadBursts() const { return n_rd; }
    std::uint64_t numWriteBursts() const { return n_wr; }
    std::uint64_t numRefreshes() const { return n_ref; }
    /** earliestAct/earliestPre/earliestColumn calls: the host work
     *  the scheduler spends on timing queries. */
    std::uint64_t timingQueries() const { return n_queries; }
    /** Raw bytes moved on the data lanes (useful or not). */
    Bytes rawBytes() const { return raw_bytes; }
    /** Column-command count per chip position (Fig. 13). */
    const std::vector<std::uint64_t> &chipAccesses() const
    {
        return chip_accesses;
    }

  private:
    struct BankState
    {
        std::int64_t open_row = -1;
        Tick act_allowed = 0;   //!< bank-level tRC / tRP gate
        Tick pre_allowed = 0;   //!< tRAS / tRTP / tWR gate
        Tick col_allowed = 0;   //!< tRCD gate after ACT
    };

    struct ChipState
    {
        std::array<Tick, 4> act_history{}; //!< for tFAW (ring)
        unsigned act_head = 0;
        unsigned act_count = 0;
        Tick last_act = 0;
        unsigned last_act_bg = 0;
        bool has_act = false;
        Tick col_bus_allowed = 0;  //!< tCCD gate (per chip)
        unsigned last_col_bg = 0;
        bool has_col = false;
    };

    struct RankState
    {
        Tick ref_busy_until = 0;
        Tick rd_allowed = 0;    //!< write-to-read turnaround
        Tick wr_allowed = 0;    //!< read-to-write turnaround
        Tick busy_until = 0;    //!< latest command/data end (refresh)
    };

    unsigned bankIndex(unsigned rank, unsigned chip,
                       unsigned flat_bank) const;
    BankState &bank(const DramCoord &coord, unsigned chip);
    const BankState &bank(const DramCoord &coord, unsigned chip) const;
    ChipState &chipState(unsigned rank, unsigned chip);
    const ChipState &chipState(unsigned rank, unsigned chip) const;

    /** Align @p t to the next bus-clock edge. */
    Tick align(Tick t) const;

    /** Report a committed command to the tap, if one is installed. */
    void
    reportCommand(DramCommandKind kind, const DramCoord &coord,
                  Tick t) const
    {
        if (command_tap)
            command_tap(DramCommand{kind, coord, t});
    }

    DimmGeometry geom;
    DramTimingParams tp;
    CommandTap command_tap;

    std::vector<BankState> banks;      //!< [rank][chip][flat_bank]
    std::vector<ChipState> chips;      //!< [rank][chip]
    std::vector<RankState> ranks;      //!< [rank]
    std::vector<Tick> lane_busy_until; //!< [chip position]
    /** C/A bus occupancy: one entry per DIMM, or per rank on
     *  customised DIMMs (per_rank_cmd_bus). */
    std::vector<Tick> cmd_bus_busy_until;

    /** Earliest tick the C/A bus serving @p rank is free. */
    Tick
    cmdBusFree(unsigned rank) const
    {
        return cmd_bus_busy_until[geom.per_rank_cmd_bus ? rank : 0];
    }

    /** Occupy the C/A bus serving @p rank until @p until. */
    void
    occupyCmdBus(unsigned rank, Tick until)
    {
        cmd_bus_busy_until[geom.per_rank_cmd_bus ? rank : 0] = until;
    }

    std::uint64_t n_act = 0;
    std::uint64_t n_pre = 0;
    std::uint64_t n_act_chips = 0;
    std::uint64_t n_pre_chips = 0;
    std::uint64_t n_rd = 0;
    std::uint64_t n_wr = 0;
    std::uint64_t n_ref = 0;
    mutable std::uint64_t n_queries = 0;
    Bytes raw_bytes;
    std::vector<std::uint64_t> chip_accesses;
};

} // namespace beacon

#endif // BEACON_DRAM_DIMM_TIMING_HH
