/**
 * @file
 * Tests for the NDP module (task scheduling, PE occupancy, operand
 * gating) and the Atomic Engine (per-word serialisation).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "ndp/atomic_engine.hh"
#include "ndp/ndp_module.hh"

namespace beacon
{
namespace
{

/** A scripted task: fixed number of steps, one access per step. */
class ScriptedTask : public Task
{
  public:
    ScriptedTask(unsigned steps, unsigned accesses_per_step,
                 Cycles cycles = Cycles{16})
        : steps_left(steps), accesses(accesses_per_step),
          cycles(cycles)
    {}

    EngineKind engine() const override { return EngineKind::FmIndex; }

    TaskStep
    next() override
    {
        TaskStep step;
        if (steps_left == 0) {
            step.done = true;
            return step;
        }
        --steps_left;
        step.compute_cycles = cycles;
        for (unsigned i = 0; i < accesses; ++i) {
            AccessRequest req;
            req.offset = i * 32;
            req.bytes = Bytes{32};
            step.accesses.push_back(req);
        }
        return step;
    }

  private:
    unsigned steps_left;
    unsigned accesses;
    Cycles cycles;
};

struct NdpHarness
{
    EventQueue eq;
    StatRegistry stats;
    Tick access_latency = 100000; // 100 ns
    unsigned issued = 0;
    std::unique_ptr<NdpModule> module;

    explicit NdpHarness(unsigned pes = 4, unsigned inflight = 64)
    {
        NdpModuleParams params;
        params.num_pes = pes;
        params.max_inflight_tasks = inflight;
        module = std::make_unique<NdpModule>(
            "ndp", eq, stats, params,
            [this](const AccessRequest &, Completion cb) {
                ++issued;
                eq.scheduleIn(access_latency,
                              [cb = std::move(cb), this]() mutable {
                                  cb(eq.now());
                              });
            });
    }
};

TEST(NdpModule, CompletesSubmittedTasks)
{
    NdpHarness h;
    int done = 0;
    h.module->setTaskDoneFn([&] { ++done; });
    for (int i = 0; i < 10; ++i)
        h.module->submit(std::make_unique<ScriptedTask>(3, 2));
    h.eq.run();
    EXPECT_EQ(done, 10);
    EXPECT_EQ(h.module->tasksCompleted(), 10u);
    EXPECT_EQ(h.module->accessesIssued(), 10u * 3u * 2u);
    EXPECT_EQ(h.issued, 60u);
    EXPECT_EQ(h.module->residentTasks(), 0u);
}

TEST(NdpModule, StepsGatedOnAllOperands)
{
    // A task whose step requests two operands must not advance until
    // both complete: total time >= steps x access latency.
    NdpHarness h(1, 8);
    h.module->submit(std::make_unique<ScriptedTask>(4, 2));
    h.eq.run();
    EXPECT_GE(h.eq.now(), 4 * h.access_latency);
}

TEST(NdpModule, PeParallelismBoundsComputeThroughput)
{
    // Pure-compute tasks: with one PE, makespan ~ n x compute; with
    // many PEs it shrinks by the PE count.
    auto makespan = [](unsigned pes) {
        NdpHarness h(pes, 256);
        for (int i = 0; i < 32; ++i)
            h.module->submit(
                std::make_unique<ScriptedTask>(4, 0, Cycles{100}));
        h.eq.run();
        return h.eq.now();
    };
    const Tick serial = makespan(1);
    const Tick parallel = makespan(8);
    EXPECT_GT(serial, parallel * 6);
}

TEST(NdpModule, PeBusyTicksAccumulate)
{
    NdpHarness h;
    h.module->submit(
        std::make_unique<ScriptedTask>(5, 0, Cycles{10}));
    h.eq.run();
    // 6 next() calls (5 work + 1 done), 5 with compute cycles.
    EXPECT_EQ(h.module->peBusyTicks(), 5u * 10u * 1250u);
}

TEST(NdpModule, CapacityAccounting)
{
    NdpHarness h(2, 4);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(h.module->canAccept());
        h.module->submit(std::make_unique<ScriptedTask>(100, 1));
    }
    EXPECT_FALSE(h.module->canAccept());
}

TEST(NdpModuleDeath, OverCapacityPanics)
{
    NdpHarness h(1, 1);
    h.module->submit(std::make_unique<ScriptedTask>(100, 1));
    EXPECT_DEATH(
        h.module->submit(std::make_unique<ScriptedTask>(1, 0)),
        "capacity");
}

TEST(NdpModule, TasksInterleaveDuringMemoryWaits)
{
    // One PE, two tasks with long memory waits: the module should
    // overlap them, so the makespan is far below the serial sum.
    NdpHarness h(1, 8);
    h.access_latency = 1000000; // 1 us
    h.module->submit(
        std::make_unique<ScriptedTask>(4, 1, Cycles{1}));
    h.module->submit(
        std::make_unique<ScriptedTask>(4, 1, Cycles{1}));
    h.eq.run();
    const Tick serial_sum = 2 * 4 * h.access_latency;
    EXPECT_LT(h.eq.now(), serial_sum * 3 / 4);
}

// --- Atomic engine ---

struct AtomicHarness
{
    EventQueue eq;
    StatRegistry stats;
    AtomicEngine engine{"atomic", eq, stats};
    Tick mem_latency = 50000;

    AtomicEngine::MemFn
    mem()
    {
        return [this](Completion cb) {
            eq.scheduleIn(mem_latency,
                          [this, cb = std::move(cb)]() mutable {
                              cb(eq.now());
                          });
        };
    }
};

TEST(AtomicEngine, SingleOpReadComputeWrite)
{
    AtomicHarness h;
    Tick done_at = 0;
    h.engine.perform(1, h.mem(), h.mem(),
                     [&](Tick t) { done_at = t; });
    h.eq.run();
    // read (50ns) + compute (5ns) + write (50ns).
    EXPECT_EQ(done_at, 105000u);
    EXPECT_EQ(h.engine.opsPerformed(), 1u);
}

TEST(AtomicEngine, SameWordSerialises)
{
    AtomicHarness h;
    std::vector<Tick> completions;
    for (int i = 0; i < 4; ++i) {
        h.engine.perform(42, h.mem(), h.mem(), [&](Tick t) {
            completions.push_back(t);
        });
    }
    h.eq.run();
    ASSERT_EQ(completions.size(), 4u);
    for (std::size_t i = 1; i < completions.size(); ++i) {
        EXPECT_GE(completions[i], completions[i - 1] + 105000)
            << "RMWs on one word must not overlap";
    }
}

TEST(AtomicEngine, DifferentWordsProceedInParallel)
{
    AtomicHarness h;
    std::vector<Tick> completions;
    for (int i = 0; i < 4; ++i) {
        h.engine.perform(i, h.mem(), h.mem(), [&](Tick t) {
            completions.push_back(t);
        });
    }
    h.eq.run();
    ASSERT_EQ(completions.size(), 4u);
    for (Tick t : completions)
        EXPECT_EQ(t, 105000u) << "independent words overlap fully";
}

TEST(AtomicEngine, RmwRaceYieldsSerialisedTotal)
{
    // Emulate racing counter increments: with engine serialisation
    // the final value equals the op count (no lost updates).
    AtomicHarness h;
    int counter = 0;
    int snapshot = 0;
    auto read = [&](Completion cb) {
        h.eq.scheduleIn(h.mem_latency, [&, cb = std::move(cb)]() mutable {
            snapshot = counter; // value observed by the engine
            cb(h.eq.now());
        });
    };
    auto write = [&](Completion cb) {
        h.eq.scheduleIn(h.mem_latency, [&, cb = std::move(cb)]() mutable {
            counter = snapshot + 1;
            cb(h.eq.now());
        });
    };
    for (int i = 0; i < 10; ++i)
        h.engine.perform(7, read, write, [](Tick) {});
    h.eq.run();
    EXPECT_EQ(counter, 10) << "no increment may be lost";
}

} // namespace
} // namespace beacon
