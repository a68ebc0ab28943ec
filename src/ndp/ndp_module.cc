#include "ndp_module.hh"

#include "common/logging.hh"
#include "obs/request_trace.hh"

namespace beacon
{

NdpModule::NdpModule(const std::string &name, EventQueue &eq,
                     StatRegistry &stats,
                     const NdpModuleParams &params, IssueFn issue_fn)
    : SimObject(name, eq, stats),
      p(params),
      issue(std::move(issue_fn)),
      stat_tasks(stat("tasksCompleted")),
      stat_accesses(stat("accessesIssued")),
      stat_steps(stat("steps")),
      stat_pe_busy(stat("peBusyTotalTicks"))
{
    BEACON_ASSERT(p.num_pes > 0, "NDP module needs at least one PE");
    BEACON_ASSERT(issue, "NDP module needs a memory path");
    if (obs::TraceSink *sink = eq.traceSink()) {
        trace = sink;
        trace_mod = sink->track(name);
    }
}

unsigned
NdpModule::acquireSlot()
{
    for (unsigned i = 0; i < slot_busy.size(); ++i) {
        if (!slot_busy[i]) {
            slot_busy[i] = 1;
            return i;
        }
    }
    slot_busy.push_back(1);
    slot_tracks.push_back(trace->track(
        name() + ".slot" + std::to_string(slot_busy.size() - 1)));
    return unsigned(slot_busy.size() - 1);
}

void
NdpModule::submit(TaskPtr task, TaskDoneFn on_done)
{
    BEACON_ASSERT(canAccept(), "NDP module over capacity");
    ++resident_tasks;
    auto pending = std::make_unique<PendingTask>();
    pending->task = std::move(task);
    pending->on_done = std::move(on_done);
    if (trace) {
        pending->slot = acquireSlot();
        pending->span = obs::TraceSpan(
            trace, slot_tracks[pending->slot], "task", submit_seq++);
        trace->counter(trace_mod, "resident",
                       double(resident_tasks));
    }
    ready_queue.push_back(std::move(pending));
    dispatch();
}

Counter &
NdpModule::tenantBusyStat(TenantId tenant)
{
    auto it = tenant_busy_stats.find(tenant);
    if (it == tenant_busy_stats.end()) {
        Counter &counter =
            stat("tenant" + std::to_string(tenant.value()) + ".peBusyTicks");
        it = tenant_busy_stats.emplace(tenant, &counter).first;
    }
    return *it->second;
}

void
NdpModule::dispatch()
{
    while (busy_pes < p.num_pes && !ready_queue.empty()) {
        std::unique_ptr<PendingTask> pending =
            std::move(ready_queue.front());
        ready_queue.pop_front();
        runStep(std::move(pending));
    }
}

void
NdpModule::finalizeCheck() const
{
    if (!p.checkers.enabled)
        return;
    BEACON_CHECK(resident_tasks == 0, name(), ": ", resident_tasks,
                 " tasks still resident at end of run");
    BEACON_CHECK(busy_pes == 0, name(), ": ", busy_pes,
                 " PEs still busy at end of run");
    BEACON_CHECK(accesses_completed == accesses_issued, name(),
                 ": access imbalance at end of run, ",
                 accesses_issued, " issued but ", accesses_completed,
                 " completed");
}

void
NdpModule::runStep(std::unique_ptr<PendingTask> pending)
{
    ++busy_pes;
    ++stat_steps;
    if (p.checkers.enabled) {
        BEACON_CHECK(busy_pes <= p.num_pes, name(),
                     ": PE overcommit, ", busy_pes, " busy of ",
                     p.num_pes);
        BEACON_CHECK(resident_tasks <= p.max_inflight_tasks, name(),
                     ": resident-task overflow, ", resident_tasks,
                     " of ", p.max_inflight_tasks);
    }
    const TenantId tid = pending->task->tenant();
    const std::uint64_t job = pending->task->jobId();
    const TaskStep step = pending->task->next();
    const Tick compute =
        cyclesToTicks(step.compute_cycles, p.pe_clock_ps);
    pe_busy_ticks += compute;
    pe_busy_by_tenant[tid] += compute;
    stat_pe_busy += double(compute);
    tenantBusyStat(tid) += double(compute);
    if (job != 0) {
        // Request context: the PE compute span is recorded at
        // schedule time with its future end (the sweep clips it to
        // the job's lifetime), and a flow step binds to the open
        // task slice so Perfetto draws the causal arrow chain.
        if (obs::RequestTrace *rt = eq.requestTrace()) {
            rt->recordSpan(job, obs::SpanKind::Pe, curTick(),
                           curTick() + compute);
        }
        if (trace)
            trace->flow(slot_tracks[pending->slot], "job", job, 't');
    }

    // The PE is occupied for the step's arithmetic; afterwards the
    // task either finishes, continues immediately, or parks in the
    // incoming queue until its operands arrive. The shared holder
    // keeps the callback copyable for std::function.
    auto held = std::make_shared<std::unique_ptr<PendingTask>>(
        std::move(pending));
    eq.scheduleIn(compute, [this, step, held, tid, job]() mutable {
        std::unique_ptr<PendingTask> pending = std::move(*held);
        --busy_pes;
        if (step.done) {
            BEACON_ASSERT(step.accesses.empty(),
                          "finished task requested operands");
            --resident_tasks;
            ++tasks_completed;
            ++stat_tasks;
            TaskDoneFn on_done = std::move(pending->on_done);
            if (trace) {
                slot_busy[pending->slot] = 0;
                trace->counter(trace_mod, "resident",
                               double(resident_tasks));
            }
            pending.reset();
            notifyDone(std::move(on_done));
            dispatch();
            return;
        }
        if (step.accesses.empty()) {
            // No operands needed: the task is immediately ready.
            ready_queue.push_back(std::move(pending));
            dispatch();
            return;
        }
        pending->outstanding_accesses =
            unsigned(step.accesses.size());
        // Hand the raw pointer around; ownership parks in a shared
        // holder until the last access completes.
        auto holder = std::make_shared<std::unique_ptr<PendingTask>>(
            std::move(pending));
        const Tick issue_tick = curTick();
        const bool check = p.checkers.enabled;
        for (const AccessRequest &raw : step.accesses) {
            ++accesses_issued;
            ++stat_accesses;
            // Stamp the owning tenant here so the memory path and
            // fabric attribute the access without trusting every
            // task generator to do it.
            AccessRequest req = raw;
            req.tenant = tid;
            req.job = job;
            issue(req, [this, holder, issue_tick, check](Tick t) {
                if (check) {
                    BEACON_CHECK(t >= issue_tick,
                                 name(),
                                 ": access completed at t=", t,
                                 " before it was issued at t=",
                                 issue_tick);
                }
                ++accesses_completed;
                PendingTask *pt = holder->get();
                BEACON_ASSERT(pt && pt->outstanding_accesses > 0,
                              "stray access completion");
                if (--pt->outstanding_accesses == 0)
                    operandsReady(std::move(*holder));
            });
        }
        dispatch();
    }, EventCat::Ndp);
}

void
NdpModule::notifyDone(TaskDoneFn on_done)
{
    // The completion observers (per-task on_done, then the module
    // observer) belong to the host-side driver: they refill task
    // slots, account jobs, and poke the orchestrator. Model the
    // completion interrupt's trip back to the host as
    // done_notify_delay. With delay 0 the observers run inline (the
    // DDR and in-switch systems).
    if (p.done_notify_delay == 0) {
        if (on_done)
            on_done();
        if (task_done)
            task_done();
        return;
    }
    eq.scheduleIn(p.done_notify_delay,
                  [this, done = std::move(on_done)] {
                      if (done)
                          done();
                      if (task_done)
                          task_done();
                  },
                  EventCat::Ndp);
}

void
NdpModule::operandsReady(std::unique_ptr<PendingTask> pending)
{
    ready_queue.push_back(std::move(pending));
    dispatch();
}

} // namespace beacon
