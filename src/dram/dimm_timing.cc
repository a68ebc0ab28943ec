#include "dimm_timing.hh"

#include <algorithm>

#include "common/logging.hh"

namespace beacon
{

DimmTimingModel::DimmTimingModel(const DimmGeometry &g,
                                 const DramTimingParams &t)
    : geom(g), tp(t)
{
    banks.resize(std::size_t{geom.ranks} * geom.chips_per_rank *
                 geom.banksPerRank());
    chips.resize(std::size_t{geom.ranks} * geom.chips_per_rank);
    ranks.resize(geom.ranks);
    const unsigned lanes = geom.per_rank_lanes
                               ? geom.ranks * geom.chips_per_rank
                               : geom.chips_per_rank;
    lane_busy_until.assign(lanes, 0);
    cmd_bus_busy_until.assign(
        geom.per_rank_cmd_bus ? geom.ranks : 1, 0);
    chip_accesses.assign(geom.chips_per_rank, 0);
}

unsigned
DimmTimingModel::bankIndex(unsigned rank, unsigned chip,
                           unsigned flat_bank) const
{
    BEACON_ASSERT(rank < geom.ranks && chip < geom.chips_per_rank &&
                      flat_bank < geom.banksPerRank(),
                  "bank index out of range");
    return (rank * geom.chips_per_rank + chip) * geom.banksPerRank() +
           flat_bank;
}

DimmTimingModel::BankState &
DimmTimingModel::bank(const DramCoord &coord, unsigned chip)
{
    return banks[bankIndex(coord.rank, chip,
                           coord.flatBank(geom.banks_per_group))];
}

const DimmTimingModel::BankState &
DimmTimingModel::bank(const DramCoord &coord, unsigned chip) const
{
    return banks[bankIndex(coord.rank, chip,
                           coord.flatBank(geom.banks_per_group))];
}

DimmTimingModel::ChipState &
DimmTimingModel::chipState(unsigned rank, unsigned chip)
{
    return chips[rank * geom.chips_per_rank + chip];
}

const DimmTimingModel::ChipState &
DimmTimingModel::chipState(unsigned rank, unsigned chip) const
{
    return chips[rank * geom.chips_per_rank + chip];
}

Tick
DimmTimingModel::align(Tick t) const
{
    const Tick rem = t % tp.t_ck_ps;
    return rem == 0 ? t : t + (tp.t_ck_ps - rem);
}

std::int64_t
DimmTimingModel::openRow(unsigned rank, unsigned chip,
                         unsigned flat_bank) const
{
    return banks[bankIndex(rank, chip, flat_bank)].open_row;
}

bool
DimmTimingModel::rowHit(const DramCoord &coord,
                        unsigned /*banks_per_group*/) const
{
    for (unsigned c = 0; c < coord.chip_count; ++c) {
        if (bank(coord, coord.chip_first + c).open_row !=
            std::int64_t{coord.row.value()}) {
            return false;
        }
    }
    return true;
}

bool
DimmTimingModel::bankClosed(const DramCoord &coord,
                            unsigned /*banks_per_group*/) const
{
    for (unsigned c = 0; c < coord.chip_count; ++c) {
        if (bank(coord, coord.chip_first + c).open_row != -1)
            return false;
    }
    return true;
}

Tick
DimmTimingModel::earliestAct(const DramCoord &coord, Tick t) const
{
    ++n_queries;
    Tick earliest = std::max(t, cmdBusFree(coord.rank));
    earliest = std::max(earliest, ranks[coord.rank].ref_busy_until);
    const Tick ck = tp.t_ck_ps;
    for (unsigned c = 0; c < coord.chip_count; ++c) {
        const unsigned chip = coord.chip_first + c;
        const BankState &b = bank(coord, chip);
        earliest = std::max(earliest, b.act_allowed);
        const ChipState &cs = chipState(coord.rank, chip);
        if (cs.has_act) {
            const unsigned rrd = cs.last_act_bg == coord.bank_group
                                     ? tp.t_rrd_l
                                     : tp.t_rrd_s;
            earliest = std::max(earliest, cs.last_act + rrd * ck);
            // tFAW: at most 4 ACTs per chip per window.
            if (cs.act_count >= cs.act_history.size()) {
                const Tick fourth = cs.act_history[cs.act_head];
                earliest =
                    std::max(earliest, fourth + tp.t_faw * ck);
            }
        }
    }
    return align(earliest);
}

Tick
DimmTimingModel::earliestPre(const DramCoord &coord, Tick t) const
{
    ++n_queries;
    Tick earliest = std::max(t, cmdBusFree(coord.rank));
    earliest = std::max(earliest, ranks[coord.rank].ref_busy_until);
    for (unsigned c = 0; c < coord.chip_count; ++c)
        earliest = std::max(earliest,
                            bank(coord, coord.chip_first + c).pre_allowed);
    return align(earliest);
}

Tick
DimmTimingModel::earliestColumn(const DramCoord &coord, bool is_write,
                                Tick t) const
{
    ++n_queries;
    const Tick ck = tp.t_ck_ps;
    Tick earliest = std::max(t, cmdBusFree(coord.rank));
    earliest = std::max(earliest, ranks[coord.rank].ref_busy_until);
    earliest = std::max(earliest, is_write ? ranks[coord.rank].wr_allowed
                                           : ranks[coord.rank].rd_allowed);
    const Tick data_latency = (is_write ? tp.t_cwl : tp.t_cl) * ck;
    for (unsigned c = 0; c < coord.chip_count; ++c) {
        const unsigned chip = coord.chip_first + c;
        const BankState &b = bank(coord, chip);
        BEACON_ASSERT(b.open_row == std::int64_t{coord.row.value()},
                      "column command to a closed/mismatched row");
        earliest = std::max(earliest, b.col_allowed);
        const ChipState &cs = chipState(coord.rank, chip);
        if (cs.has_col) {
            const unsigned ccd = cs.last_col_bg == coord.bank_group
                                     ? tp.t_ccd_l
                                     : tp.t_ccd_s;
            earliest = std::max(earliest, cs.col_bus_allowed +
                                              (ccd - tp.t_ccd_s) * ck);
            earliest = std::max(earliest, cs.col_bus_allowed);
        }
        // The chip's data lane must be free when the data appears.
        const unsigned lane = geom.per_rank_lanes
                                  ? coord.rank * geom.chips_per_rank +
                                        chip
                                  : chip;
        const Tick lane_free = lane_busy_until[lane];
        if (lane_free > earliest + data_latency)
            earliest = lane_free - data_latency;
    }
    return align(earliest);
}

void
DimmTimingModel::issueAct(const DramCoord &coord, Tick t)
{
    const Tick ck = tp.t_ck_ps;
    for (unsigned c = 0; c < coord.chip_count; ++c) {
        const unsigned chip = coord.chip_first + c;
        BankState &b = bank(coord, chip);
        BEACON_ASSERT(b.open_row == -1, "ACT to an open bank");
        b.open_row = std::int64_t{coord.row.value()};
        b.act_allowed = t + tp.t_rc * ck;
        b.pre_allowed = std::max(b.pre_allowed, t + tp.t_ras * ck);
        b.col_allowed = t + tp.t_rcd * ck;
        ChipState &cs = chipState(coord.rank, chip);
        cs.act_history[cs.act_head] = t;
        cs.act_head = (cs.act_head + 1) % cs.act_history.size();
        ++cs.act_count;
        cs.last_act = t;
        cs.last_act_bg = coord.bank_group;
        cs.has_act = true;
    }
    occupyCmdBus(coord.rank, t + ck);
    ranks[coord.rank].busy_until =
        std::max(ranks[coord.rank].busy_until, t + tp.t_rc * ck);
    ++n_act;
    n_act_chips += coord.chip_count;
    reportCommand(DramCommandKind::Act, coord, t);
}

void
DimmTimingModel::issuePre(const DramCoord &coord, Tick t)
{
    const Tick ck = tp.t_ck_ps;
    for (unsigned c = 0; c < coord.chip_count; ++c) {
        const unsigned chip = coord.chip_first + c;
        BankState &b = bank(coord, chip);
        b.open_row = -1;
        b.act_allowed = std::max(b.act_allowed, t + tp.t_rp * ck);
    }
    occupyCmdBus(coord.rank, t + ck);
    ++n_pre;
    n_pre_chips += coord.chip_count;
    reportCommand(DramCommandKind::Pre, coord, t);
}

Tick
DimmTimingModel::issueColumn(const DramCoord &coord, bool is_write,
                             Tick t, bool auto_precharge)
{
    const Tick ck = tp.t_ck_ps;
    const Tick data_latency = (is_write ? tp.t_cwl : tp.t_cl) * ck;
    const Tick data_start = t + data_latency;
    const Tick data_end = data_start + tp.t_bl * ck;

    for (unsigned c = 0; c < coord.chip_count; ++c) {
        const unsigned chip = coord.chip_first + c;
        BankState &b = bank(coord, chip);
        if (is_write) {
            b.pre_allowed =
                std::max(b.pre_allowed, data_end + tp.t_wr * ck);
        } else {
            b.pre_allowed =
                std::max(b.pre_allowed, t + tp.t_rtp * ck);
        }
        if (auto_precharge) {
            // RDA/WRA: the bank self-precharges once tRTP/tWR
            // allows; no explicit PRE command is spent.
            b.open_row = -1;
            b.act_allowed =
                std::max(b.act_allowed, b.pre_allowed + tp.t_rp * ck);
            ++n_pre_chips;
        }
        ChipState &cs = chipState(coord.rank, chip);
        cs.col_bus_allowed = t + tp.t_ccd_s * ck;
        cs.last_col_bg = coord.bank_group;
        cs.has_col = true;
        const unsigned lane = geom.per_rank_lanes
                                  ? coord.rank * geom.chips_per_rank +
                                        chip
                                  : chip;
        lane_busy_until[lane] = data_end;
        ++chip_accesses[chip];
    }
    if (is_write) {
        ranks[coord.rank].rd_allowed =
            std::max(ranks[coord.rank].rd_allowed,
                     data_end + tp.t_wtr * ck);
        ++n_wr;
    } else {
        ranks[coord.rank].wr_allowed =
            std::max(ranks[coord.rank].wr_allowed, data_end);
        ++n_rd;
    }
    occupyCmdBus(coord.rank, t + ck);
    ranks[coord.rank].busy_until =
        std::max(ranks[coord.rank].busy_until, data_end);
    raw_bytes += Bytes{std::uint64_t{coord.chip_count} *
                       geom.bytesPerChipBurst()};
    reportCommand(is_write ? (auto_precharge ? DramCommandKind::WriteAp
                                             : DramCommandKind::Write)
                           : (auto_precharge ? DramCommandKind::ReadAp
                                             : DramCommandKind::Read),
                  coord, t);
    return data_end;
}

Tick
DimmTimingModel::earliestRefresh(unsigned rank, Tick t) const
{
    // All banks of the rank must be precharged; approximate by
    // waiting for outstanding activity on the rank to drain.
    Tick earliest = std::max(t, ranks[rank].busy_until);
    earliest = std::max(earliest, ranks[rank].ref_busy_until);
    return align(earliest);
}

Tick
DimmTimingModel::issueRefresh(unsigned rank, Tick t)
{
    const Tick done = t + tp.t_rfc * tp.t_ck_ps;
    ranks[rank].ref_busy_until = done;
    // Refresh closes every row in the rank.
    for (unsigned chip = 0; chip < geom.chips_per_rank; ++chip) {
        for (unsigned b = 0; b < geom.banksPerRank(); ++b) {
            BankState &bs = banks[bankIndex(rank, chip, b)];
            bs.open_row = -1;
            bs.act_allowed = std::max(bs.act_allowed, done);
        }
    }
    ++n_ref;
    DramCoord ref_coord;
    ref_coord.rank = rank;
    reportCommand(DramCommandKind::Refresh, ref_coord, t);
    return done;
}

} // namespace beacon
