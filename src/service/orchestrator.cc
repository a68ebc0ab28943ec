#include "orchestrator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/request_trace.hh"
#include "obs/sampler.hh"
#include "obs/slo.hh"

namespace beacon
{

namespace
{

/**
 * Latency quantile of an ascending Tick sample set via the shared
 * exact ceil-rank rule (quantileSorted, sim/stats.hh).
 */
double
quantileMs(const std::vector<Tick> &sorted, double q)
{
    std::vector<double> as_double(sorted.begin(), sorted.end());
    return quantileSorted(as_double, q) * 1e-9; // ps -> ms
}

double
meanMs(const std::vector<Tick> &samples)
{
    if (samples.empty())
        return 0;
    double sum = 0;
    for (Tick t : samples)
        sum += double(t);
    return sum / double(samples.size()) * 1e-9;
}

} // namespace

PoolOrchestrator::PoolOrchestrator(NdpSystem &sys,
                                   const OrchestratorParams &params)
    : system(sys), p(params), scheduler(makeScheduler(p.scheduler)),
      trace(sys.eventQueue().traceSink()),
      reqtrace(sys.eventQueue().requestTrace()),
      slo(sys.obsSlo())
{
}

PoolOrchestrator::~PoolOrchestrator()
{
    // The machine may outlive us; never leave it a dangling observer.
    system.setSlotFreedFn(nullptr);
}

PoolOrchestrator::TenantState &
PoolOrchestrator::stateOf(TenantId tenant)
{
    BEACON_ASSERT(tenant.value() >= p.tenant_id_base + 1 &&
                      tenant.value() <=
                          p.tenant_id_base + tenants.size(),
                  "unknown tenant ", tenant);
    return tenants[tenant.value() - p.tenant_id_base - 1];
}

std::vector<TenantId>
PoolOrchestrator::tenantIds() const
{
    std::vector<TenantId> ids;
    ids.reserve(tenants.size());
    for (const TenantState &tenant : tenants)
        ids.push_back(tenant.id);
    return ids;
}

TenantId
PoolOrchestrator::addTenant(const TenantSpec &spec)
{
    BEACON_ASSERT(!ran, "tenants must be admitted before run()");
    BEACON_ASSERT(spec.workload, "tenant without a workload");
    const TenantId id =
        TenantId(p.tenant_id_base + tenants.size() + 1);

    AllocationRequest request;
    request.app = spec.name.empty()
                      ? "tenant" + std::to_string(id.value())
                      : spec.name;
    request.structures = spec.workload->structures();
    request.policy = system.placementPolicy();
    // A tenant that does not fit must be rejected, not squeezed in
    // by migrating a co-tenant's resident data.
    request.allow_clean = false;

    AllocationResponse response =
        system.memoryFramework().allocate(request);
    if (!response.success) {
        last_error = response.error;
        return untenanted_id;
    }
    system.setTenantLayout(id, response.layout);

    TenantState state;
    state.spec = spec;
    state.spec.name = request.app;
    state.id = id;
    const std::string tag = "tenant" + std::to_string(id.value());
    state.latency_ms_stat = &system.statsMutable().sampleStat(
        "service." + tag + ".jobLatencyMs");
    if (trace)
        state.track = trace->track(tag);
    if (slo) {
        // ms -> ps; slo_ms == 0 keeps target 0 (never breaches).
        state.slo_idx = slo->addTenant(
            request.app, Tick(spec.slo_ms * 1e9));
    }
    tenants.push_back(std::move(state));
    return id;
}

bool
PoolOrchestrator::admitJob(TenantState &tenant,
                           const std::shared_ptr<Job> &job)
{
    if (tenant.spec.scratch_bytes_per_job > Bytes{}) {
        AllocationRequest request;
        request.app = tenant.spec.name + ".job" +
                      std::to_string(job->id);
        StructureSpec scratch;
        scratch.cls = DataClass::ReadData;
        scratch.bytes = tenant.spec.scratch_bytes_per_job;
        scratch.spatial = true;
        scratch.read_only = false;
        request.structures = {scratch};
        request.policy = system.placementPolicy();
        request.allow_clean = false;

        AllocationResponse response =
            system.memoryFramework().allocate(request);
        if (!response.success) {
            last_error = response.error;
            return false;
        }
        job->scratch_app = request.app;
    }

    // Admitted: the job's tasks become schedulable now.
    for (unsigned i = 0; i < tenant.spec.tasks_per_job; ++i) {
        ReadyTask ready;
        ready.seq = next_seq++;
        ready.workload_index =
            tenant.next_workload_task %
            std::max<std::size_t>(1, tenant.spec.workload->numTasks());
        ++tenant.next_workload_task;
        ready.job = job;
        tenant.ready.push_back(std::move(ready));
    }
    return true;
}

void
PoolOrchestrator::submitJob(TenantState &tenant)
{
    auto job = std::make_shared<Job>();
    job->id = next_job_id++;
    job->submit_tick = system.eventQueue().now();
    job->tasks_remaining = tenant.spec.tasks_per_job;
    ++tenant.jobs_submitted;
    ++jobs_outstanding;
    if (trace) {
        job->slot = acquireJobSlot(tenant);
        job->span = obs::TraceSpan(
            trace, tenant.slot_tracks[job->slot], "job", job->id);
    }
    if (reqtrace)
        reqtrace->jobBegin(job->id, tenant.id.value());

    if (p.ingress) {
        // Admission waits for the host's ingress transfer; the job
        // already counts as outstanding.
        p.ingress(tenant.id, job->id, [this, id = tenant.id, job] {
            completeSubmission(id, job);
            dispatch();
        });
        return;
    }
    completeSubmission(tenant.id, job);
}

void
PoolOrchestrator::completeSubmission(TenantId tenant_id,
                                     const std::shared_ptr<Job> &job)
{
    TenantState &tenant = stateOf(tenant_id);
    if (admitJob(tenant, job)) {
        if (trace)
            trace->counter(tenant.track, "ready",
                           double(tenant.ready.size()));
        return;
    }
    // "memory clean disallowed" means a co-tenant's transient
    // reservation is in the way: wait for a release. Anything else
    // (the scratch quota alone exceeds a DIMM) can never succeed.
    if (last_error.find("memory clean disallowed") !=
        std::string::npos) {
        tenant.admission_wait.push_back(job);
    } else {
        ++tenant.jobs_rejected;
        --jobs_outstanding;
        if (trace) {
            // Rejected jobs never ran: no span, free the slot, but
            // leave an instant carrying the rejection reason so the
            // job does not vanish from the trace silently.
            trace->instantReason(tenant.track, "reject", job->id,
                                 "scratch quota infeasible");
            job->span.abandon();
            tenant.slot_busy[job->slot] = 0;
        }
        if (reqtrace)
            reqtrace->jobReject(job->id);
    }
}

unsigned
PoolOrchestrator::acquireJobSlot(TenantState &tenant)
{
    for (unsigned i = 0; i < tenant.slot_busy.size(); ++i) {
        if (!tenant.slot_busy[i]) {
            tenant.slot_busy[i] = 1;
            return i;
        }
    }
    tenant.slot_busy.push_back(1);
    tenant.slot_tracks.push_back(trace->track(
        "tenant" + std::to_string(tenant.id.value()) + ".job" +
        std::to_string(tenant.slot_busy.size() - 1)));
    return unsigned(tenant.slot_busy.size() - 1);
}

void
PoolOrchestrator::retryAdmissions()
{
    for (TenantState &tenant : tenants) {
        while (!tenant.admission_wait.empty()) {
            if (!admitJob(tenant, tenant.admission_wait.front()))
                break;
            tenant.admission_wait.pop_front();
        }
    }
}

void
PoolOrchestrator::replenishClosedLoop(TenantState &tenant)
{
    if (tenant.spec.arrival.kind != ArrivalKind::ClosedLoop)
        return;
    const unsigned concurrency =
        std::max(1u, tenant.spec.arrival.concurrency);
    while (tenant.jobs_submitted < tenant.spec.num_jobs &&
           tenant.jobs_submitted - tenant.jobs_completed -
                   tenant.jobs_rejected <
               concurrency) {
        submitJob(tenant);
    }
}

void
PoolOrchestrator::dispatch()
{
    while (system.hasFreeSlot()) {
        std::vector<SchedCandidate> candidates;
        for (const TenantState &tenant : tenants) {
            if (tenant.ready.empty())
                continue;
            SchedCandidate c;
            c.tenant = tenant.id;
            c.head_seq = tenant.ready.front().seq;
            c.priority = tenant.spec.priority;
            c.weight = tenant.spec.weight;
            candidates.push_back(c);
        }
        if (candidates.empty())
            return;

        const TenantId picked_id = scheduler->pick(candidates);
        const SchedCandidate *picked = nullptr;
        for (const SchedCandidate &c : candidates) {
            if (c.tenant == picked_id)
                picked = &c;
        }
        BEACON_ASSERT(picked, "scheduler picked a non-candidate");

        TenantState &tenant = stateOf(picked_id);
        ReadyTask ready = std::move(tenant.ready.front());
        tenant.ready.pop_front();

        const Workload &wl = *tenant.spec.workload;
        scheduler->onDispatch(
            *picked,
            double(engineStepCycles(wl.engine()).value()));

        if (!ready.job->dispatched_any) {
            ready.job->dispatched_any = true;
            ready.job->first_dispatch_tick =
                system.eventQueue().now();
            tenant.queue_waits.push_back(
                ready.job->first_dispatch_tick -
                ready.job->submit_tick);
            if (trace) {
                trace->instantWithId(tenant.track, "dispatch",
                                     ready.job->id);
                // Flow start: binds to the open "job" slice on the
                // slot track; DRAM/PE steps ('t') and the completion
                // ('f') continue the arrow chain.
                trace->flow(tenant.slot_tracks[ready.job->slot],
                            "job", ready.job->id, 's');
            }
        }
        if (trace)
            trace->counter(tenant.track, "ready",
                           double(tenant.ready.size()));

        WorkloadContext ctx;
        ctx.kmc_single_pass = true; // multi-pass is single-tenant only
        ctx.pass = 0;
        auto task = std::make_unique<TenantTask>(
            wl.makeTask(ready.workload_index, ctx), picked_id,
            ready.job->id);
        const bool served = system.serveTask(
            std::move(task),
            [this, id = picked_id, job = ready.job] {
                onTaskDone(id, job);
            });
        BEACON_ASSERT(served, "free slot vanished mid-dispatch");
    }
}

void
PoolOrchestrator::onTaskDone(TenantId tenant_id,
                             const std::shared_ptr<Job> &job)
{
    TenantState &tenant = stateOf(tenant_id);
    ++tenant.tasks_completed;
    BEACON_ASSERT(job->tasks_remaining > 0, "job task underflow");
    if (--job->tasks_remaining > 0)
        return;

    // Job complete.
    const Tick now = system.eventQueue().now();
    const Tick latency = now - job->submit_tick;
    tenant.job_latencies.push_back(latency);
    tenant.latency_ms_stat->sample(double(latency) * 1e-9);
    if (trace) {
        // Flow finish lands on the still-open job slice.
        trace->flow(tenant.slot_tracks[job->slot], "job", job->id,
                    'f');
        job->span.close();
        tenant.slot_busy[job->slot] = 0;
    }
    if (reqtrace)
        reqtrace->jobEnd(job->id);
    if (slo)
        slo->record(tenant.slo_idx, latency);
    ++tenant.jobs_completed;
    --jobs_outstanding;
    if (!job->scratch_app.empty())
        system.memoryFramework().deallocate(job->scratch_app);
    retryAdmissions();
    replenishClosedLoop(tenant);
    // New tasks are picked up by the machine's slot-freed observer,
    // which fires right after this callback.
}

void
PoolOrchestrator::start()
{
    BEACON_ASSERT(!ran, "start() may only be called once");
    ran = true;
    BEACON_ASSERT(!tenants.empty(), "no admitted tenants");

    EventQueue &eq = system.eventQueue();

    // Per-tenant time series: ready-queue depth (level) and a live
    // p99 estimate from the streaming latency histogram. Registered
    // here, before the first sampling interval can elapse.
    if (obs::Sampler *sampler = system.obsSampler()) {
        for (TenantState &tenant : tenants) {
            const std::string tag =
                "tenant" + std::to_string(tenant.id.value());
            sampler->addLevel(tag + ".queue_depth",
                              [this, id = tenant.id] {
                                  return double(
                                      stateOf(id).ready.size());
                              });
            sampler->addLevel(tag + ".p99_ms",
                              [stat = tenant.latency_ms_stat] {
                                  return stat->percentile(0.99);
                              });
            if (slo) {
                // Windowed SLO series from the live monitor.
                const unsigned si = tenant.slo_idx;
                sampler->addLevel(
                    tag + ".slo_p50_ms", [this, si] {
                        return double(slo->lastWindow(si).p50) *
                               1e-9;
                    });
                sampler->addLevel(
                    tag + ".slo_p99_ms", [this, si] {
                        return double(slo->lastWindow(si).p99) *
                               1e-9;
                    });
                sampler->addLevel(tag + ".slo_burn", [this, si] {
                    return slo->burnRate(si);
                });
            }
        }
    }

    target_jobs = 0;
    for (TenantState &tenant : tenants) {
        target_jobs += tenant.spec.num_jobs;
        if (tenant.spec.arrival.kind == ArrivalKind::ClosedLoop) {
            replenishClosedLoop(tenant);
        } else {
            const double rate = tenant.spec.arrival.jobs_per_second;
            BEACON_ASSERT(rate > 0,
                          "open-loop tenant needs a positive rate");
            // Pre-draw every exponential gap from a per-tenant
            // stream, so arrivals are independent of execution
            // interleaving.
            Rng arrivals(p.seed ^
                         (0x9E3779B97F4A7C15ull *
                          (tenant.id.value() + 1)));
            Tick at = 0;
            for (unsigned j = 0; j < tenant.spec.num_jobs; ++j) {
                const double u = arrivals.nextDouble();
                const double gap_s = -std::log1p(-u) / rate;
                at += Tick(gap_s * 1e12);
                eq.schedule(at, [this, id = tenant.id] {
                    submitJob(stateOf(id));
                    dispatch();
                }, EventCat::Service);
            }
        }
    }
    dispatch();
}

std::uint64_t
PoolOrchestrator::doneJobs() const
{
    std::uint64_t done = 0;
    for (const TenantState &tenant : tenants)
        done += tenant.jobs_completed + tenant.jobs_rejected;
    return done;
}

ServiceReport
PoolOrchestrator::run()
{
    EventQueue &eq = system.eventQueue();
    system.setSlotFreedFn([this] { dispatch(); });
    start();

    while (!finished()) {
        if (!eq.runOne()) {
            BEACON_PANIC("service run stalled with ",
                         jobs_outstanding,
                         " jobs outstanding (admission deadlock?)");
        }
    }

    const Tick end = eq.now();
    const RunResult machine = system.machineResult(end);

    if (system.params().checkers.any())
        verifyConservation();

    ServiceReport report = collectReport(machine);
    system.setSlotFreedFn(nullptr);
    return report;
}

ServiceReport
PoolOrchestrator::collectReport(const RunResult &machine)
{
    ServiceReport report;
    report.machine = machine;

    // Close the final partial SLO window so lifetime totals cover
    // every completed job (idempotent; the run has ended).
    if (slo)
        slo->finish();

    // Machine-wide denominators for the energy split.
    const StatRegistry &reg = system.stats();
    double total_pe = 0;
    for (unsigned part = 0; part < system.numPartitions(); ++part)
        total_pe += double(system.ndpModule(part).peBusyTicks());
    const double total_fabric = reg.sumMatching("usefulBytesTotal");
    const double total_dram = reg.sumMatching("dramBytesTotal");

    for (TenantState &tenant : tenants) {
        TenantReport out;
        out.tenant = tenant.id;
        out.name = tenant.spec.name;
        out.jobs_completed = tenant.jobs_completed;
        out.jobs_rejected = tenant.jobs_rejected;
        out.tasks_completed = tenant.tasks_completed;

        std::sort(tenant.job_latencies.begin(),
                  tenant.job_latencies.end());
        out.p50_latency_ms = quantileMs(tenant.job_latencies, 0.50);
        out.p99_latency_ms = quantileMs(tenant.job_latencies, 0.99);
        out.mean_latency_ms = meanMs(tenant.job_latencies);
        out.mean_queue_ms = meanMs(tenant.queue_waits);
        out.jobs_per_second =
            report.machine.seconds > 0
                ? double(tenant.jobs_completed) /
                      report.machine.seconds
                : 0;

        const std::string tag =
            "tenant" + std::to_string(tenant.id.value());
        for (unsigned part = 0; part < system.numPartitions();
             ++part) {
            const auto &by_tenant =
                system.ndpModule(part).peBusyByTenant();
            auto it = by_tenant.find(tenant.id);
            if (it != by_tenant.end())
                out.pe_busy_ticks += it->second;
        }
        out.fabric_bytes = Bytes{std::uint64_t(
            reg.sumMatching(tag + ".usefulBytes"))};
        out.dram_bytes = Bytes{std::uint64_t(
            reg.sumMatching(tag + ".dramBytes"))};

        const SystemEnergy &energy = report.machine.energy;
        if (total_pe > 0) {
            out.energy_pj += energy.pe_pj *
                             double(out.pe_busy_ticks) / total_pe;
        }
        if (total_fabric > 0) {
            out.energy_pj +=
                energy.comm_pj *
                (double(out.fabric_bytes.value()) / total_fabric);
        }
        if (total_dram > 0) {
            out.energy_pj +=
                energy.dram_pj *
                (double(out.dram_bytes.value()) / total_dram);
        }

        if (reqtrace) {
            const obs::TenantBreakdown bd =
                reqtrace->tenantBreakdown(tenant.id.value());
            out.has_breakdown = true;
            out.breakdown_jobs = bd.jobs;
            out.breakdown_total_ticks = bd.total_latency;
            for (std::size_t k = 0; k < obs::num_span_kinds; ++k)
                out.breakdown_ticks[k] = bd.comp[k];
        }
        if (slo) {
            out.has_slo = true;
            out.slo_jobs = slo->totalJobs(tenant.slo_idx);
            out.slo_breaches = slo->totalBreaches(tenant.slo_idx);
            out.slo_burn =
                out.slo_jobs ? double(out.slo_breaches) /
                                   double(out.slo_jobs)
                             : 0;
            out.slo_window_burn = slo->burnRate(tenant.slo_idx);
        }
        report.tenants.push_back(std::move(out));
    }

    return report;
}

void
PoolOrchestrator::verifyConservation() const
{
    const StatRegistry &reg = system.stats();
    auto check = [](double total, double by_tenant,
                    const char *what) {
        BEACON_ASSERT(std::abs(total - by_tenant) <= 1e-6,
                      "per-tenant ", what,
                      " do not sum to the untagged total: ",
                      by_tenant, " vs ", total);
    };

    double fabric_by_tenant =
        reg.sumMatching("tenant0.usefulBytes");
    double pe_by_tenant = reg.sumMatching("tenant0.peBusyTicks");
    double dram_by_tenant = reg.sumMatching("tenant0.dramBytes");
    for (const TenantState &tenant : tenants) {
        const std::string tag =
            "tenant" + std::to_string(tenant.id.value());
        fabric_by_tenant += reg.sumMatching(tag + ".usefulBytes");
        pe_by_tenant += reg.sumMatching(tag + ".peBusyTicks");
        dram_by_tenant += reg.sumMatching(tag + ".dramBytes");
    }
    check(reg.sumMatching("usefulBytesTotal"), fabric_by_tenant,
          "fabric bytes");
    check(reg.sumMatching("peBusyTotalTicks"), pe_by_tenant,
          "PE busy ticks");
    check(reg.sumMatching("dramBytesTotal"), dram_by_tenant,
          "DRAM bytes");
}

} // namespace beacon
