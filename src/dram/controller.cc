#include "controller.hh"

#include <algorithm>

#include "check/dram_protocol_checker.hh"
#include "common/logging.hh"
#include "obs/request_trace.hh"

namespace beacon
{

DramController::DramController(const std::string &name, EventQueue &eq,
                               StatRegistry &stats,
                               const DimmGeometry &geom,
                               const DramTimingParams &timing,
                               const DramControllerParams &p)
    : SimObject(name, eq, stats),
      model(geom, timing),
      params(p),
      stat_reads(stat("readsCompleted")),
      stat_writes(stat("writesCompleted")),
      stat_acts(stat("activates")),
      stat_row_hits(stat("rowHits")),
      stat_row_conflicts(stat("rowConflicts")),
      stat_latency(stats.sampleStat(name + ".requestLatency"))
{
    if (params.checkers.enabled) {
        protocol_checker =
            std::make_unique<DramProtocolChecker>(name, geom, timing);
    }
    if (obs::TraceSink *sink = eq.traceSink()) {
        trace = sink;
        trace_ctrl = sink->track(name);
        for (unsigned r = 0; r < geom.ranks; ++r) {
            const std::string rank_name =
                name + ".r" + std::to_string(r);
            trace_rank.push_back(sink->track(rank_name));
            for (unsigned g = 0; g < geom.bank_groups; ++g)
                trace_bg.push_back(sink->track(
                    rank_name + ".bg" + std::to_string(g)));
        }
        // Span lengths: the analytic occupancy each command implies
        // (row open, precharge, data burst, refresh busy).
        trace_dur_act = timing.t_rcd * timing.t_ck_ps;
        trace_dur_pre = timing.t_rp * timing.t_ck_ps;
        trace_dur_col = timing.t_bl * timing.t_ck_ps;
        trace_dur_ref = timing.t_rfc * timing.t_ck_ps;
    }
    if (protocol_checker || trace) {
        // Single tap on the C/A bus shared by the shadow checker and
        // the tracer, in that order.
        model.setCommandTap([this](const DramCommand &cmd) {
            if (protocol_checker)
                protocol_checker->observe(cmd);
            if (trace)
                traceCommand(cmd);
        });
    }
    if (params.enable_refresh) {
        const Tick refi = timing.t_refi * timing.t_ck_ps;
        for (unsigned r = 0; r < geom.ranks; ++r) {
            // Stagger refreshes across ranks.
            const Tick first = refi + r * (refi / geom.ranks);
            eq.schedule(first, [this, r] { refreshTick(r); },
                        EventCat::Dram);
        }
    }
}

void
DramController::traceCommand(const DramCommand &cmd)
{
    Tick dur = trace_dur_col;
    switch (cmd.kind) {
      case DramCommandKind::Act:
        dur = trace_dur_act;
        break;
      case DramCommandKind::Pre:
        dur = trace_dur_pre;
        break;
      case DramCommandKind::Refresh:
        trace->complete(trace_rank[cmd.coord.rank], "REF", cmd.tick,
                        cmd.tick + trace_dur_ref);
        return;
      default:
        break;
    }
    const unsigned groups = model.geometry().bank_groups;
    trace->complete(
        trace_bg[cmd.coord.rank * groups + cmd.coord.bank_group],
        dramCommandName(cmd.kind), cmd.tick, cmd.tick + dur);
}

DramController::~DramController() = default;

void
DramController::enqueue(MemRequest req)
{
    BEACON_ASSERT(req.bursts >= 1, "request with zero bursts");
    BEACON_ASSERT(req.coord.chip_first + req.coord.chip_count <=
                      model.geometry().chips_per_rank,
                  "chip group out of range");
    req.enqueue_tick = curTick();
    queue.push_back(ActiveRequest{std::move(req), 0});
    dirty = true;
    if (trace)
        trace->counter(trace_ctrl, "queue", double(queue.size()));
    scheduleDecision(curTick());
}

void
DramController::scheduleDecision(Tick t)
{
    if (decision_pending && decision_time <= t)
        return;
    if (decision_pending)
        eq.cancel(decision_event);
    decision_pending = true;
    decision_time = std::max(t, curTick());
    decision_event = eq.schedule(
        decision_time,
        [this] {
            decision_pending = false;
            decision_time = max_tick;
            decide();
        },
        EventCat::Dram);
}

void
DramController::decide()
{
    // Issue as many commands as the C/A bus(es) allow at this tick:
    // a customised DIMM drives each rank's bus independently, so
    // several commands (to different ranks) may go out together.
    // Every earliest-issue tick is align(max(now, c)) with c fixed by
    // the state, so while nothing changed and now < soonest the scan
    // would find nothing ready and the same soonest: skip it.
    if (dirty || curTick() >= soonest) {
        while (decideOnce()) {
        }
    }
    if (!queue.empty())
        scheduleDecision(std::min(soonest, curTick() + model.tCK()));
}

bool
DramController::decideOnce()
{
    if (queue.empty())
        return false;

    const Tick now = curTick();
    const unsigned bpg = model.geometry().banks_per_group;
    const unsigned window =
        std::min<std::size_t>(scan_window, queue.size());

    // Classify the next needed command for each request in the
    // window and find the best candidate.
    enum class Need { Column, Act, Pre };
    struct Candidate
    {
        unsigned idx;
        Need need;
        Tick earliest;
        bool row_hit;
    };

    Candidate best_ready{0, Need::Pre, max_tick, false};
    bool have_ready = false;
    bool have_ready_hit = false;
    soonest = max_tick;
    dirty = false;

    for (unsigned i = 0; i < window; ++i) {
        const ActiveRequest &ar = queue[i];
        const DramCoord &coord = ar.req.coord;
        Candidate cand{i, Need::Pre, max_tick, false};
        if (model.rowHit(coord, bpg)) {
            cand.need = Need::Column;
            cand.row_hit = true;
            cand.earliest =
                model.earliestColumn(coord, ar.req.is_write, now);
        } else if (model.bankClosed(coord, bpg)) {
            cand.need = Need::Act;
            cand.earliest = model.earliestAct(coord, now);
        } else {
            cand.need = Need::Pre;
            cand.earliest = model.earliestPre(coord, now);
        }
        soonest = std::min(soonest, cand.earliest);
        if (cand.earliest > now)
            continue;
        // Ready now: prefer row hits, then age (scan order is age).
        if (!have_ready) {
            best_ready = cand;
            have_ready = true;
            have_ready_hit = cand.row_hit;
        } else if (cand.row_hit && !have_ready_hit) {
            best_ready = cand;
            have_ready_hit = true;
        }
    }

    if (!have_ready)
        return false;

    dirty = true;
    ActiveRequest &ar = queue[best_ready.idx];
    const DramCoord &coord = ar.req.coord;
    switch (best_ready.need) {
      case Need::Pre:
        model.issuePre(coord, now);
        ++stat_row_conflicts;
        break;
      case Need::Act:
        model.issueAct(coord, now);
        ++stat_acts;
        break;
      case Need::Column: {
        if (ar.bursts_issued == 0 && best_ready.row_hit)
            ++stat_row_hits;
        const bool last_burst =
            ar.bursts_issued + 1 == ar.req.bursts;
        const bool auto_pre =
            last_burst &&
            params.page_policy == PagePolicy::Closed;
        const Tick data_end =
            model.issueColumn(coord, ar.req.is_write, now, auto_pre);
        ++ar.bursts_issued;
        if (ar.bursts_issued == ar.req.bursts) {
            // Request complete at data end.
            MemRequest done = std::move(ar.req);
            queue.erase(queue.begin() + best_ready.idx);
            if (trace)
                trace->counter(trace_ctrl, "queue",
                               double(queue.size()));
            if (done.is_write) {
                ++writes_done;
                ++stat_writes;
            } else {
                ++reads_done;
                ++stat_reads;
            }
            stat_latency.sample(
                double(data_end - done.enqueue_tick));
            if (done.job != 0) {
                // Request-scoped attribution: DRAM media time is the
                // whole queue-to-data residency in this controller.
                if (obs::RequestTrace *rt = eq.requestTrace())
                    rt->recordSpan(done.job, obs::SpanKind::Dram,
                                   done.enqueue_tick, data_end);
                if (trace)
                    trace->flow(trace_ctrl, "job", done.job, 't');
            }
            if (done.on_complete) {
                eq.schedule(data_end,
                            CompleteAt{std::move(done.on_complete),
                                       data_end},
                            EventCat::Dram);
            }
        }
        break;
      }
    }
    return true;
}

void
DramController::finalizeCheck() const
{
    if (protocol_checker && params.enable_refresh)
        protocol_checker->finalize(curTick());
}

void
DramController::refreshTick(unsigned rank)
{
    const Tick now = curTick();
    const Tick start = model.earliestRefresh(rank, now);
    if (start > now) {
        eq.schedule(start, [this, rank] { refreshTick(rank); },
                    EventCat::Dram);
        return;
    }
    model.issueRefresh(rank, now);
    dirty = true;
    const Tick refi =
        model.timing().t_refi * model.timing().t_ck_ps;
    eq.schedule(now + refi, [this, rank] { refreshTick(rank); },
                EventCat::Dram);
    // Refresh may unblock nothing, but banks it closed need an ACT;
    // make sure a decision happens afterwards.
    scheduleDecision(model.refreshBusyUntil(rank));
}

} // namespace beacon
