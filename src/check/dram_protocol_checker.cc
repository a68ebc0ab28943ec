#include "dram_protocol_checker.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace beacon
{

DramProtocolChecker::DramProtocolChecker(std::string name_,
                                         const DimmGeometry &g,
                                         const DramTimingParams &t)
    : name(std::move(name_)), geom(g), tp(t)
{
    bank_state.resize(std::size_t{geom.ranks} * geom.chips_per_rank *
                      geom.banksPerRank());
    chip_state.resize(std::size_t{geom.ranks} * geom.chips_per_rank);
    rank_state.resize(geom.ranks);
    const unsigned lanes = geom.per_rank_lanes
                               ? geom.ranks * geom.chips_per_rank
                               : geom.chips_per_rank;
    lane_data_end.assign(lanes, 0);
    const unsigned buses = geom.per_rank_cmd_bus ? geom.ranks : 1;
    bus_last_cmd.assign(buses, 0);
    bus_has_cmd.assign(buses, false);
}

DramProtocolChecker::ShadowBank &
DramProtocolChecker::bank(unsigned rank, unsigned chip_idx,
                          unsigned flat)
{
    return bank_state[(std::size_t{rank} * geom.chips_per_rank +
                       chip_idx) *
                          geom.banksPerRank() +
                      flat];
}

DramProtocolChecker::ShadowChip &
DramProtocolChecker::chip(unsigned rank, unsigned chip_idx)
{
    return chip_state[std::size_t{rank} * geom.chips_per_rank +
                      chip_idx];
}

void
DramProtocolChecker::record(const DramCommand &cmd)
{
    history.push_back(cmd);
    while (history.size() > history_depth)
        history.pop_front();
    ++n_commands;
}

std::string
DramProtocolChecker::historyDump() const
{
    std::ostringstream os;
    os << "last " << history.size() << " commands on " << name
       << " (oldest first):";
    for (const DramCommand &c : history) {
        os << "\n  t=" << c.tick << " " << dramCommandName(c.kind);
        if (c.kind == DramCommandKind::Refresh) {
            os << " rank=" << c.coord.rank;
        } else {
            os << " rank=" << c.coord.rank
               << " bg=" << c.coord.bank_group
               << " bank=" << c.coord.bank << " row=" << c.coord.row
               << " chips=[" << c.coord.chip_first << ","
               << c.coord.chip_first + c.coord.chip_count << ")";
        }
    }
    return os.str();
}

void
DramProtocolChecker::fail(const DramCommand &cmd,
                          const std::string &why)
{
    ++n_violations;
    BEACON_PANIC("DRAM protocol violation on ", name, ": ", why,
                 " (offending command: t=", cmd.tick, " ",
                 dramCommandName(cmd.kind), " rank=", cmd.coord.rank,
                 " bg=", cmd.coord.bank_group,
                 " bank=", cmd.coord.bank, " row=", cmd.coord.row,
                 ")\n", historyDump());
}

void
DramProtocolChecker::checkRankAvailable(const DramCommand &cmd)
{
    const ShadowRank &r = rank_state[cmd.coord.rank];
    if (r.has_ref && cmd.tick < r.ref_end) {
        fail(cmd, detail::formatMessage(
                      "command inside tRFC refresh window (refresh "
                      "started t=",
                      r.ref_start, ", rank blocked until t=",
                      r.ref_end, ")"));
    }
}

void
DramProtocolChecker::checkCmdBus(const DramCommand &cmd)
{
    const unsigned bus =
        geom.per_rank_cmd_bus ? cmd.coord.rank : 0;
    if (bus_has_cmd[bus] &&
        cmd.tick < bus_last_cmd[bus] + tp.t_ck_ps) {
        fail(cmd, detail::formatMessage(
                      "C/A bus conflict: previous command on bus ",
                      bus, " at t=", bus_last_cmd[bus],
                      " occupies the bus for one clock (",
                      tp.t_ck_ps, " ps)"));
    }
    bus_last_cmd[bus] = cmd.tick;
    bus_has_cmd[bus] = true;
}

void
DramProtocolChecker::checkAct(const DramCommand &cmd)
{
    const DramCoord &c = cmd.coord;
    const Tick t = cmd.tick;
    const unsigned flat = c.flatBank(geom.banks_per_group);
    for (unsigned i = 0; i < c.chip_count; ++i) {
        const unsigned ch = c.chip_first + i;
        ShadowBank &b = bank(c.rank, ch, flat);
        if (b.open_row != -1) {
            fail(cmd, detail::formatMessage(
                          "ACT to an open bank (chip ", ch,
                          " has row ", b.open_row, " open)"));
        }
        if (t < b.act_legal) {
            fail(cmd, detail::formatMessage(
                          "ACT violates tRP/tRC: earliest legal "
                          "ACT on chip ",
                          ch, " is t=", b.act_legal));
        }
        ShadowChip &cs = chip(c.rank, ch);
        if (cs.has_act) {
            const unsigned rrd = cs.last_act_bg == c.bank_group
                                     ? tp.t_rrd_l
                                     : tp.t_rrd_s;
            if (t < cs.last_act + ck(rrd)) {
                fail(cmd,
                     detail::formatMessage(
                         "ACT violates tRRD_",
                         cs.last_act_bg == c.bank_group ? "L" : "S",
                         ": previous ACT on chip ", ch, " at t=",
                         cs.last_act, ", minimum spacing ", ck(rrd),
                         " ps"));
            }
        }
        if (cs.act_times.size() >= 4 &&
            t < cs.act_times[cs.act_times.size() - 4] + ck(tp.t_faw)) {
            fail(cmd, detail::formatMessage(
                          "tFAW violation: fifth ACT on chip ", ch,
                          " within the four-activate window "
                          "(fourth-last ACT at t=",
                          cs.act_times[cs.act_times.size() - 4],
                          ", window ", ck(tp.t_faw), " ps)"));
        }
        b.open_row = std::int64_t{c.row.value()};
        b.last_act = t;
        b.has_act = true;
        b.act_legal = t + ck(tp.t_rc);
        b.pre_earliest = std::max(b.pre_earliest, t + ck(tp.t_ras));
        b.col_legal = t + ck(tp.t_rcd);
        cs.act_times.push_back(t);
        while (cs.act_times.size() > 4)
            cs.act_times.pop_front();
        cs.last_act = t;
        cs.last_act_bg = c.bank_group;
        cs.has_act = true;
    }
}

void
DramProtocolChecker::checkPre(const DramCommand &cmd)
{
    const DramCoord &c = cmd.coord;
    const Tick t = cmd.tick;
    const unsigned flat = c.flatBank(geom.banks_per_group);
    for (unsigned i = 0; i < c.chip_count; ++i) {
        const unsigned ch = c.chip_first + i;
        ShadowBank &b = bank(c.rank, ch, flat);
        if (b.open_row != -1 && t < b.pre_earliest) {
            fail(cmd, detail::formatMessage(
                          "PRE violates tRAS/tRTP/tWR: earliest "
                          "legal PRE on chip ",
                          ch, " is t=", b.pre_earliest));
        }
        b.open_row = -1;
        b.act_legal = std::max(b.act_legal, t + ck(tp.t_rp));
    }
}

void
DramProtocolChecker::checkColumn(const DramCommand &cmd)
{
    const DramCoord &c = cmd.coord;
    const Tick t = cmd.tick;
    const bool is_write = cmd.kind == DramCommandKind::Write ||
                          cmd.kind == DramCommandKind::WriteAp;
    const bool auto_pre = cmd.kind == DramCommandKind::ReadAp ||
                          cmd.kind == DramCommandKind::WriteAp;
    const unsigned flat = c.flatBank(geom.banks_per_group);
    const Tick data_start = t + ck(is_write ? tp.t_cwl : tp.t_cl);
    const Tick data_end = data_start + ck(tp.t_bl);

    ShadowRank &r = rank_state[c.rank];
    if (!is_write && r.has_wr && t < r.wr_data_end + ck(tp.t_wtr)) {
        fail(cmd, detail::formatMessage(
                      "READ violates tWTR: write data on rank ",
                      c.rank, " ends t=", r.wr_data_end,
                      ", turnaround ", ck(tp.t_wtr), " ps"));
    }
    if (is_write && r.has_rd) {
        // JEDEC DDR4 read-to-write turnaround on one rank:
        // CL - CWL + BL + 2 clocks between the commands.
        const unsigned gap_ck =
            tp.t_cl + tp.t_bl + 2 > tp.t_cwl
                ? tp.t_cl + tp.t_bl + 2 - tp.t_cwl
                : 0;
        if (t < r.last_rd + ck(gap_ck)) {
            fail(cmd, detail::formatMessage(
                          "WRITE violates read-to-write turnaround: "
                          "read on rank ",
                          c.rank, " at t=", r.last_rd,
                          ", minimum gap ", ck(gap_ck), " ps"));
        }
    }

    for (unsigned i = 0; i < c.chip_count; ++i) {
        const unsigned ch = c.chip_first + i;
        ShadowBank &b = bank(c.rank, ch, flat);
        if (b.open_row == -1) {
            fail(cmd, detail::formatMessage(
                          "column command to a precharged bank "
                          "(chip ",
                          ch, ")"));
        }
        if (b.open_row != std::int64_t{c.row.value()}) {
            fail(cmd, detail::formatMessage(
                          "column command to the wrong row: chip ",
                          ch, " has row ", b.open_row,
                          " open, command targets row ", c.row));
        }
        if (t < b.col_legal) {
            fail(cmd, detail::formatMessage(
                          "column command violates tRCD: chip ", ch,
                          " activated at t=", b.last_act,
                          ", earliest RD/WR t=", b.col_legal));
        }
        ShadowChip &cs = chip(c.rank, ch);
        if (cs.has_col) {
            const unsigned ccd = cs.last_col_bg == c.bank_group
                                     ? tp.t_ccd_l
                                     : tp.t_ccd_s;
            if (t < cs.last_col + ck(ccd)) {
                fail(cmd,
                     detail::formatMessage(
                         "column command violates tCCD_",
                         cs.last_col_bg == c.bank_group ? "L" : "S",
                         ": previous column command on chip ", ch,
                         " at t=", cs.last_col, ", minimum spacing ",
                         ck(ccd), " ps"));
            }
        }
        const unsigned lane =
            geom.per_rank_lanes
                ? c.rank * geom.chips_per_rank + ch
                : ch;
        if (data_start < lane_data_end[lane]) {
            fail(cmd, detail::formatMessage(
                          "data-lane overlap on lane ", lane,
                          ": previous burst ends t=",
                          lane_data_end[lane],
                          ", this burst starts t=", data_start));
        }
        lane_data_end[lane] = data_end;
        cs.last_col = t;
        cs.last_col_bg = c.bank_group;
        cs.has_col = true;
        if (is_write) {
            b.pre_earliest =
                std::max(b.pre_earliest, data_end + ck(tp.t_wr));
        } else {
            b.pre_earliest =
                std::max(b.pre_earliest, t + ck(tp.t_rtp));
        }
        if (auto_pre) {
            b.open_row = -1;
            b.act_legal = std::max(b.act_legal,
                                   b.pre_earliest + ck(tp.t_rp));
        }
    }

    if (is_write) {
        r.wr_data_end = data_end;
        r.has_wr = true;
    } else {
        r.last_rd = t;
        r.has_rd = true;
    }
}

void
DramProtocolChecker::checkRefresh(const DramCommand &cmd)
{
    const unsigned rk = cmd.coord.rank;
    const Tick t = cmd.tick;
    ShadowRank &r = rank_state[rk];
    if (r.has_ref && t < r.ref_end) {
        fail(cmd, detail::formatMessage(
                      "REF while the previous refresh is still in "
                      "progress (tRFC): previous REF at t=",
                      r.ref_start, ", done t=", r.ref_end));
    }
    const Tick window =
        Tick{1 + max_postponed_refreshes} * ck(tp.t_refi);
    const Tick due_from = r.has_ref ? r.ref_start : 0;
    if (t > due_from + window) {
        fail(cmd, detail::formatMessage(
                      "tREFI violation: rank ", rk,
                      " refreshed at t=", t, ", more than ",
                      1 + max_postponed_refreshes,
                      " x tREFI after ", due_from));
    }
    r.ref_start = t;
    r.ref_end = t + ck(tp.t_rfc);
    r.has_ref = true;
    // REF carries an implicit precharge-all in this model: every row
    // in the rank closes and ACT waits for the refresh to finish.
    for (unsigned ch = 0; ch < geom.chips_per_rank; ++ch) {
        for (unsigned b = 0; b < geom.banksPerRank(); ++b) {
            ShadowBank &bs = bank(rk, ch, b);
            bs.open_row = -1;
            bs.act_legal = std::max(bs.act_legal, r.ref_end);
        }
    }
}

void
DramProtocolChecker::checkClockEdge(const DramCommand &cmd)
{
    if (cmd.tick % tp.t_ck_ps != 0) {
        fail(cmd, detail::formatMessage(
                      "command off the bus clock: t=", cmd.tick,
                      " is not a multiple of tCK (", tp.t_ck_ps,
                      " ps)"));
    }
}

void
DramProtocolChecker::observe(const DramCommand &cmd)
{
    record(cmd);
    checkClockEdge(cmd);
    if (cmd.kind == DramCommandKind::Refresh) {
        checkRefresh(cmd);
        return;
    }
    checkRankAvailable(cmd);
    checkCmdBus(cmd);
    switch (cmd.kind) {
      case DramCommandKind::Act:
        checkAct(cmd);
        break;
      case DramCommandKind::Pre:
        checkPre(cmd);
        break;
      case DramCommandKind::Read:
      case DramCommandKind::ReadAp:
      case DramCommandKind::Write:
      case DramCommandKind::WriteAp:
        checkColumn(cmd);
        break;
      case DramCommandKind::Refresh:
        break;
    }
}

void
DramProtocolChecker::finalize(Tick now) const
{
    const Tick window =
        Tick{1 + max_postponed_refreshes} *
        (Tick{tp.t_refi} * tp.t_ck_ps);
    for (unsigned rk = 0; rk < geom.ranks; ++rk) {
        const ShadowRank &r = rank_state[rk];
        const Tick due_from = r.has_ref ? r.ref_start : 0;
        BEACON_CHECK(now <= due_from + window,
                     "rank ", rk, " of ", name,
                     " is overdue for refresh at end of run (last "
                     "refresh t=",
                     due_from, ", now t=", now, ")");
    }
}

} // namespace beacon
