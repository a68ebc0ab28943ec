/**
 * @file
 * Telemetry subsystem tests: TraceSink ring/span/JSON behaviour,
 * tick-driven Sampler series, host-side self-profiling, the golden
 * time series of a small fig12-shaped run, and the guarantee that
 * turning tracing on does not perturb simulation results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "accel/report.hh"
#include "accel/system.hh"
#include "accel/workload.hh"
#include "obs/observability.hh"
#include "obs/request_trace.hh"
#include "obs/sampler.hh"
#include "obs/self_profile.hh"
#include "obs/trace.hh"
#include "service/orchestrator.hh"

#include "golden_compare.hh"

namespace beacon
{
namespace
{

// ---------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------

TEST(TraceSink, RecordsEventsOldestFirst)
{
    EventQueue eq;
    obs::TraceSink sink(eq, 8);
    const obs::TrackId t = sink.track("t0");
    EXPECT_EQ(sink.track("t0"), t); // same name, same track
    sink.complete(t, "a", 0, 5);
    eq.schedule(10, [&] {
        sink.instant(t, "b");
        sink.counter(t, "depth", 3.0);
    });
    eq.run();

    const std::vector<obs::TraceEvent> evs = sink.snapshot();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].phase, 'X');
    EXPECT_EQ(evs[0].start, 0u);
    EXPECT_EQ(evs[0].dur, 5u);
    EXPECT_EQ(evs[1].phase, 'i');
    EXPECT_EQ(evs[1].start, 10u);
    EXPECT_EQ(evs[2].phase, 'C');
    EXPECT_DOUBLE_EQ(evs[2].value, 3.0);
    EXPECT_EQ(sink.numTracks(), 1u);
    EXPECT_EQ(sink.droppedEvents(), 0u);
}

TEST(TraceSink, RingOverflowDropsOldestAndCountsIt)
{
    EventQueue eq;
    obs::TraceSink sink(eq, 4);
    const obs::TrackId t = sink.track("t0");
    for (Tick i = 0; i < 6; ++i)
        sink.complete(t, "e", i, i + 1);

    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.capacity(), 4u);
    EXPECT_EQ(sink.droppedEvents(), 2u);
    // The ring keeps the most recent window: events 2..5 survive.
    const std::vector<obs::TraceEvent> evs = sink.snapshot();
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(evs.front().start, 2u);
    EXPECT_EQ(evs.back().start, 5u);
}

TEST(TraceSpan, RaiiEmitsNestedSpans)
{
    EventQueue eq;
    obs::TraceSink sink(eq);
    const obs::TrackId t = sink.track("t0");
    {
        obs::TraceSpan outer(&sink, t, "outer");
        eq.schedule(10, [] {});
        eq.run();
        {
            obs::TraceSpan inner(&sink, t, "inner", 7);
            eq.schedule(20, [] {});
            eq.run();
        } // inner closes at 20
    }     // outer closes at 20

    const std::vector<obs::TraceEvent> evs = sink.snapshot();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].start, 10u); // inner emitted first
    EXPECT_EQ(evs[0].dur, 10u);
    EXPECT_TRUE(evs[0].has_id);
    EXPECT_EQ(evs[0].id, 7u);
    EXPECT_EQ(evs[1].start, 0u);
    EXPECT_EQ(evs[1].dur, 20u);
}

TEST(TraceSpan, MoveEmitsOnceAndAbandonEmitsNothing)
{
    EventQueue eq;
    obs::TraceSink sink(eq);
    const obs::TrackId t = sink.track("t0");
    {
        obs::TraceSpan a(&sink, t, "moved");
        obs::TraceSpan b(std::move(a));
        EXPECT_FALSE(a.active()); // NOLINT(bugprone-use-after-move)
        EXPECT_TRUE(b.active());
    }
    EXPECT_EQ(sink.size(), 1u);
    {
        obs::TraceSpan c(&sink, t, "dropped");
        c.abandon();
    }
    EXPECT_EQ(sink.size(), 1u);
    // A default-constructed / null-sink span is inert.
    obs::TraceSpan null_span(nullptr, 0, "x");
    null_span.close();
    EXPECT_EQ(sink.size(), 1u);
}

/** Brace/bracket balance outside string literals. */
void
expectBalancedJson(const std::string &json)
{
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            --depth;
            ASSERT_GE(depth, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
}

TEST(TraceSink, JsonIsWellFormedChromeFormat)
{
    EventQueue eq;
    obs::TraceSink sink(eq);
    const obs::TrackId t0 = sink.track("dimm0.r0.bg1");
    const obs::TrackId t1 = sink.track("tenant1");
    sink.complete(t0, "RD", 100, 200);
    sink.completeWithId(t0, "flit", 200, 300, 42);
    sink.instantWithId(t1, "dispatch", 7);
    sink.counter(t1, "ready", 2.0);

    std::ostringstream os;
    sink.writeJson(os);
    const std::string json = os.str();
    expectBalancedJson(json);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Metadata names both tracks inside pid 1.
    EXPECT_NE(json.find("dimm0.r0.bg1"), std::string::npos);
    EXPECT_NE(json.find("tenant1"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    // All four phases present.
    for (const char *needle :
         {"\"ph\":\"X\"", "\"ph\":\"i\"", "\"ph\":\"C\"",
          "\"ph\":\"M\""})
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    // Ticks (ps) render as microseconds: 100 ps = 0.000100 us.
    EXPECT_NE(json.find("0.000100"), std::string::npos);
}

// ---------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------

TEST(Sampler, LevelsAndRatesPerInterval)
{
    EventQueue eq;
    obs::Sampler sampler(eq, 1000); // 1 ns interval
    double level = 1.0;
    double bytes = 0.0;
    sampler.addLevel("depth", [&] { return level; });
    sampler.addRate("gbps", [&] { return bytes; }, 1e-9);
    sampler.start();

    eq.schedule(500, [&] {
        bytes = 1000;
        level = 2;
    });
    eq.schedule(1500, [&] { bytes = 3000; });
    eq.run(3000);
    sampler.finish();

    ASSERT_EQ(sampler.numSeries(), 2u);
    const auto &rows = sampler.rows();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].tick, 1000u);
    EXPECT_DOUBLE_EQ(rows[0].values[0], 2.0);
    // 1000 bytes in 1 ns = 1000 GB/s at scale 1e-9.
    EXPECT_DOUBLE_EQ(rows[0].values[1], 1000.0);
    EXPECT_DOUBLE_EQ(rows[1].values[1], 2000.0);
    EXPECT_DOUBLE_EQ(rows[2].values[1], 0.0);
}

TEST(Sampler, FinishRecordsPartialIntervalOnce)
{
    EventQueue eq;
    obs::Sampler sampler(eq, 1000);
    double bytes = 0.0;
    sampler.addRate("gbps", [&] { return bytes; }, 1e-9);
    sampler.start();
    eq.run(1000); // one full interval
    eq.schedule(1700, [&] { bytes = 700; });
    while (eq.now() < 1700 && eq.runOne()) {
    }
    sampler.finish();
    sampler.finish(); // idempotent

    const auto &rows = sampler.rows();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1].tick, 1700u);
    // 700 bytes over the 0.7 ns partial interval = 1000 GB/s.
    EXPECT_DOUBLE_EQ(rows[1].values[0], 1000.0);
    // The cancelled self-reschedule must not linger in the queue.
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(Sampler, JsonAndCsvOutput)
{
    EventQueue eq;
    obs::Sampler sampler(eq, 1000);
    double v = 3.0;
    sampler.addLevel("depth", [&] { return v; });
    sampler.start();
    eq.run(2000);
    sampler.finish();

    std::ostringstream json;
    sampler.writeJson(json);
    expectBalancedJson(json.str());
    EXPECT_NE(json.str().find("\"beacon-timeseries-1\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"depth\""), std::string::npos);

    std::ostringstream csv;
    sampler.writeCsv(csv);
    EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')),
              "tick,depth");
}

// ---------------------------------------------------------------
// Self-profiling
// ---------------------------------------------------------------

TEST(SelfProfiler, AttributesEventsPerCategory)
{
    EventQueue eq;
    obs::SelfProfiler prof;
    eq.setProfiler(&prof);
    eq.schedule(1, [] {}, EventCat::Dram);
    eq.schedule(2, [] {}, EventCat::Dram);
    eq.schedule(3, [] {}, EventCat::Cxl);
    eq.schedule(4, [] {}); // EventCat::Other
    eq.run();
    eq.setProfiler(nullptr);

    const obs::SelfProfileResult r = prof.result();
    EXPECT_TRUE(r.enabled);
    EXPECT_EQ(r.events, 4u);
    EXPECT_EQ(r.by_cat[std::size_t(EventCat::Dram)].events, 2u);
    EXPECT_EQ(r.by_cat[std::size_t(EventCat::Cxl)].events, 1u);
    EXPECT_EQ(r.by_cat[std::size_t(EventCat::Other)].events, 1u);
    EXPECT_GE(r.wall_seconds, 0.0);
    const std::vector<std::string> top = r.topCategories();
    EXPECT_LE(top.size(), 3u);
    EXPECT_FALSE(top.empty());
}

// ---------------------------------------------------------------
// Whole-machine behaviour
// ---------------------------------------------------------------

genomics::DatasetPreset
smallPreset()
{
    genomics::DatasetPreset preset = genomics::seedingPresets()[3];
    preset.genome.length = 1 << 13;
    preset.reads.num_reads = 16;
    return preset;
}

obs::ObsConfig
allOnConfig()
{
    obs::ObsConfig cfg;
    cfg.trace = true;
    cfg.sample_interval = 1000000; // 1 us
    cfg.self_profile = true;
    return cfg;
}

TEST(Observability, TracingDoesNotPerturbTheSimulation)
{
    const FmSeedingWorkload workload(smallPreset());

    SystemParams off = SystemParams::beaconD();
    off.obs = obs::ObsConfig{}; // everything disabled
    NdpSystem sys_off(off, workload);
    const RunResult r_off = sys_off.run(8);

    SystemParams on = SystemParams::beaconD();
    on.obs = allOnConfig();
    NdpSystem sys_on(on, workload);
    const RunResult r_on = sys_on.run(8);

    ASSERT_NE(sys_on.observability(), nullptr);
    EXPECT_EQ(sys_off.observability(), nullptr);
    EXPECT_GT(sys_on.observability()->trace()->size(), 0u);

    // Bit-identical results and stats either way.
    std::ostringstream json_off, json_on;
    writeRunResultJson(json_off, r_off, 0);
    writeRunResultJson(json_on, r_on, 0);
    EXPECT_EQ(json_on.str(), json_off.str());
    EXPECT_EQ(sys_on.stats().sumMatching("dramBytesTotal"),
              sys_off.stats().sumMatching("dramBytesTotal"));
    EXPECT_EQ(sys_on.stats().sumMatching(".bytes"),
              sys_off.stats().sumMatching(".bytes"));
}

TEST(Observability, DefaultParamsIgnoreTelemetryEnvironment)
{
    // Telemetry is switched on through SystemParams::obs (which the
    // bench harnesses set from their flags), never from the
    // environment.
    ASSERT_EQ(setenv("BEACON_TRACE", "1", 1), 0);
    ASSERT_EQ(setenv("BEACON_SELF_PROFILE", "1", 1), 0);
    ASSERT_EQ(setenv("BEACON_TIMESERIES_NS", "1000", 1), 0);
    const FmSeedingWorkload workload(smallPreset());
    // The preset leaves SystemParams::obs at its default.
    NdpSystem system(SystemParams::beaconD(), workload);
    const bool built = system.observability() != nullptr;
    unsetenv("BEACON_TRACE");
    unsetenv("BEACON_SELF_PROFILE");
    unsetenv("BEACON_TIMESERIES_NS");
    EXPECT_FALSE(built);
}

TEST(Observability, Fig12SmallTimeseriesGolden)
{
    const FmSeedingWorkload workload(smallPreset());
    SystemParams params = SystemParams::beaconD();
    params.obs = obs::ObsConfig{};
    params.obs.sample_interval = 1000000; // 1 us
    NdpSystem system(params, workload);
    system.run(8);
    ASSERT_NE(system.observability(), nullptr);
    system.observability()->finish();

    std::ostringstream os;
    system.obsSampler()->writeJson(os);
    golden::checkGoldenString(os.str(),
                              "fig12_small_timeseries.json");
}

TEST(Observability, ServiceRunTracesTenants)
{
    const FmSeedingWorkload workload(smallPreset());
    SystemParams params = SystemParams::beaconD();
    params.name = "BEACON-D (service)";
    params.pes_per_module = 4;
    params.max_inflight_tasks = 2;
    params.obs = allOnConfig();
    NdpSystem system(params);

    OrchestratorParams op;
    op.seed = 0xBEACC0DEull;
    PoolOrchestrator orchestrator(system, op);
    TenantSpec spec;
    spec.name = "bulk";
    spec.workload = &workload;
    spec.num_jobs = 3;
    spec.tasks_per_job = 2;
    spec.arrival.concurrency = 2;
    ASSERT_NE(orchestrator.addTenant(spec), untenanted_id)
        << orchestrator.lastError();
    orchestrator.run();

    obs::Observability *o = system.observability();
    ASSERT_NE(o, nullptr);
    o->finish();

    std::ostringstream trace;
    o->trace()->writeJson(trace);
    expectBalancedJson(trace.str());
    // Tenant job spans live on per-tenant slot tracks; dispatch
    // instants on the tenant's own track.
    EXPECT_NE(trace.str().find("tenant1.job0"), std::string::npos);
    EXPECT_NE(trace.str().find("dispatch"), std::string::npos);

    const std::vector<std::string> labels = o->sampler()->labels();
    EXPECT_NE(std::find(labels.begin(), labels.end(),
                        "tenant1.queue_depth"),
              labels.end());
    EXPECT_NE(std::find(labels.begin(), labels.end(),
                        "tenant1.dram_gbps"),
              labels.end());
    EXPECT_FALSE(o->sampler()->rows().empty());
    EXPECT_TRUE(o->selfProfiling());
    EXPECT_GT(o->selfProfile().events, 0u);
}

// ---------------------------------------------------------------
// Request-scoped tracing (span trees, breakdown, byte-identity)
// ---------------------------------------------------------------

obs::ObsConfig
requestConfig()
{
    obs::ObsConfig cfg;
    cfg.trace = true;
    cfg.request_trace = true;
    cfg.sample_interval = 1000000; // 1 us
    return cfg;
}

/** A small two-tenant service run; returns the live system through
 *  @p run so callers can inspect telemetry before teardown. */
ServiceReport
runServiceWithRequests(const Workload &workload,
                       const std::function<void(NdpSystem &)> &inspect)
{
    SystemParams params = SystemParams::beaconD();
    params.name = "BEACON-D (service)";
    params.pes_per_module = 4;
    params.max_inflight_tasks = 2;
    params.checkers = CheckerConfig{};
    params.obs = requestConfig();
    NdpSystem system(params);

    OrchestratorParams op;
    op.seed = 0xBEACC0DEull;
    PoolOrchestrator orchestrator(system, op);
    TenantSpec spec;
    spec.name = "bulk";
    spec.workload = &workload;
    spec.num_jobs = 3;
    spec.tasks_per_job = 2;
    spec.arrival.concurrency = 2;
    spec.slo_ms = 1e-3; // 1 us target in ms: some jobs breach
    EXPECT_NE(orchestrator.addTenant(spec), untenanted_id)
        << orchestrator.lastError();
    TenantSpec quick = spec;
    quick.name = "quick";
    quick.num_jobs = 2;
    quick.tasks_per_job = 1;
    quick.arrival.concurrency = 1;
    EXPECT_NE(orchestrator.addTenant(quick), untenanted_id)
        << orchestrator.lastError();
    const ServiceReport report = orchestrator.run();
    inspect(system);
    return report;
}

TEST(RequestTrace, SpanTreeIsWellFormedAndBreakdownSumsExactly)
{
    const FmSeedingWorkload workload(smallPreset());
    const ServiceReport report = runServiceWithRequests(
        workload, [&](NdpSystem &system) {
            obs::Observability *o = system.observability();
            ASSERT_NE(o, nullptr);
            o->finish();
            obs::RequestTrace *rt = o->requestTrace();
            ASSERT_NE(rt, nullptr);

            // Every begun job ended; none were dropped.
            EXPECT_EQ(rt->openJobs(), 0u);
            EXPECT_EQ(rt->droppedJobs(), 0u);
            ASSERT_EQ(rt->records().size(), 5u); // 3 bulk + 2 quick

            std::uint64_t prev_end = 0;
            for (const obs::JobRecord &rec : rt->records()) {
                SCOPED_TRACE("job " + std::to_string(rec.job));
                EXPECT_GT(rec.job, 0u);
                EXPECT_GE(rec.end, rec.submit);
                // Records are stored in completion order.
                EXPECT_GE(rec.end, prev_end);
                prev_end = rec.end;
                // A job that ran work has component spans, and the
                // sweep attributed every tick exactly once: the
                // components sum to end-to-end latency, in ticks.
                EXPECT_GT(rec.n_spans, 0u);
                Tick sum = 0;
                for (const Tick c : rec.comp)
                    sum += c;
                EXPECT_EQ(sum, rec.latency());
            }

            // The per-tenant aggregation equals the per-job records.
            for (std::uint32_t tenant : {1u, 2u}) {
                const obs::TenantBreakdown agg =
                    rt->tenantBreakdown(tenant);
                std::uint64_t jobs = 0;
                Tick latency = 0;
                std::array<Tick, obs::num_span_kinds> comp{};
                for (const obs::JobRecord &rec : rt->records()) {
                    if (rec.tenant != tenant)
                        continue;
                    ++jobs;
                    latency += rec.latency();
                    for (std::size_t k = 0; k < comp.size(); ++k)
                        comp[k] += rec.comp[k];
                }
                EXPECT_EQ(agg.jobs, jobs);
                EXPECT_EQ(agg.total_latency, latency);
                EXPECT_EQ(agg.comp, comp);
            }

            // Flow events: one 's' (dispatch) and one 'f'
            // (completion) per job, with PE/DRAM 't' steps between,
            // every flow id a real job id.
            std::size_t n_s = 0, n_t = 0, n_f = 0;
            for (const obs::TraceEvent &ev : o->trace()->snapshot()) {
                if (ev.phase != 's' && ev.phase != 't' &&
                    ev.phase != 'f')
                    continue;
                EXPECT_TRUE(ev.has_id);
                EXPECT_GE(ev.id, 1u);
                EXPECT_LE(ev.id, 5u);
                n_s += ev.phase == 's';
                n_t += ev.phase == 't';
                n_f += ev.phase == 'f';
            }
            EXPECT_EQ(n_s, 5u);
            EXPECT_EQ(n_f, 5u);
            EXPECT_GT(n_t, 0u);

            // The reqtrace JSON is balanced and versioned.
            std::ostringstream os;
            rt->writeJson(os);
            expectBalancedJson(os.str());
            EXPECT_NE(os.str().find("\"beacon-reqtrace-1\""),
                      std::string::npos);
        });
    // The orchestrator report carries the same aggregates.
    ASSERT_EQ(report.tenants.size(), 2u);
    for (const TenantReport &tenant : report.tenants) {
        EXPECT_TRUE(tenant.has_breakdown);
        EXPECT_TRUE(tenant.has_slo);
        EXPECT_EQ(tenant.breakdown_jobs, tenant.jobs_completed);
        Tick sum = 0;
        for (const Tick c : tenant.breakdown_ticks)
            sum += c;
        EXPECT_EQ(sum, tenant.breakdown_total_ticks);
        EXPECT_EQ(tenant.slo_jobs, tenant.jobs_completed);
    }
}

} // namespace
} // namespace beacon
