/**
 * @file
 * Unit tests for the simulation kernel: event queue, clock domains,
 * statistics.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace beacon
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
    EXPECT_EQ(eq.eventsExecuted(), 3u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(50, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool fired = false;
    const EventId id = eq.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(eq.scheduled(id));
    eq.cancel(id);
    EXPECT_FALSE(eq.scheduled(id));
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, PendingCountsLiveEventsOnly)
{
    EventQueue eq;
    const EventId a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(eq.pendingIncludingCancelled(), 2u);
    // A cancelled event leaves its queue entry behind until its tick
    // is reached; pending() must not count it.
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.pendingIncludingCancelled(), 2u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.pendingIncludingCancelled(), 0u);
}

TEST(EventQueue, RunLimitStopsBeforeLaterEvents)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(30, [&] { ++count; });
    eq.run(20);
    EXPECT_EQ(count, 2);
    eq.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recur = [&] {
        if (++depth < 5)
            eq.scheduleIn(10, recur);
    };
    eq.schedule(0, recur);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueueDeath, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    bool fired = false;
    eq.schedule(5, [&] { fired = true; });
    eq.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, StaleIdDoesNotCancelSlotReuser)
{
    EventQueue eq;
    bool first = false;
    bool second = false;
    const EventId a = eq.schedule(10, [&] { first = true; });
    eq.run();
    EXPECT_TRUE(first);
    // The fired event's slot is recycled for the next schedule; the
    // old id must not reach the new occupant.
    const EventId b = eq.schedule(20, [&] { second = true; });
    EXPECT_NE(a, b);
    EXPECT_EQ(a & 0xffffffffu, b & 0xffffffffu);
    EXPECT_FALSE(eq.scheduled(a));
    eq.cancel(a);
    EXPECT_TRUE(eq.scheduled(b));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(second);
}

TEST(EventQueue, CancelZeroIsNoOp)
{
    EventQueue eq;
    eq.cancel(0);
    EXPECT_FALSE(eq.scheduled(0));
    int fired = 0;
    const EventId a = eq.schedule(10, [&] { ++fired; });
    EXPECT_NE(a, 0u);
    eq.cancel(0);
    EXPECT_TRUE(eq.scheduled(a));
    eq.run();
    // Slot 0 has now been recycled; 0 still names nothing.
    const EventId b = eq.schedule(20, [&] { ++fired; });
    EXPECT_NE(b, 0u);
    eq.cancel(0);
    EXPECT_TRUE(eq.scheduled(b));
    EXPECT_FALSE(eq.scheduled(0));
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelReleasesCapturesAtOnce)
{
    EventQueue eq;
    auto state = std::make_shared<int>(7);
    const EventId id = eq.schedule(10, [state] { ++*state; });
    EXPECT_EQ(state.use_count(), 2);
    eq.cancel(id);
    EXPECT_EQ(state.use_count(), 1);
    eq.run();
    EXPECT_EQ(*state, 7);
}

TEST(EventQueue, MoveOnlyCaptureRuns)
{
    EventQueue eq;
    int seen = 0;
    auto owned = std::make_unique<int>(42);
    eq.schedule(5, [&seen, p = std::move(owned)] { seen = *p; });
    // A capture too large for the inline buffer is boxed and still
    // owns its move-only state.
    std::array<std::uint64_t, 16> big{};
    big[15] = 3;
    eq.schedule(6, [&seen, big, p = std::make_unique<int>(1)] {
        seen += int(big[15]) + *p;
    });
    eq.run();
    EXPECT_EQ(seen, 46);
}

TEST(EventQueue, CancelledEntryCountsUntilPopped)
{
    EventQueue eq;
    const EventId a = eq.schedule(10, [] {});
    eq.schedule(30, [] {});
    eq.cancel(a);
    eq.cancel(a); // a second cancel changes nothing
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.pendingIncludingCancelled(), 2u);
    // Running past the cancelled entry's tick pops it.
    eq.run(20);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.pendingIncludingCancelled(), 1u);
    eq.run();
    EXPECT_EQ(eq.pendingIncludingCancelled(), 0u);
}

TEST(EventQueue, SameTickFifoAcrossSlotReuse)
{
    EventQueue eq;
    std::vector<int> order;
    // Fill and drain slots so the free list hands them back in an
    // order unlike their indices; ties must still run in schedule
    // order.
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(eq.schedule(Tick(10 + i), [] {}));
    eq.cancel(ids[1]);
    eq.cancel(ids[4]);
    eq.run();
    for (int i = 0; i < 8; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
    eq.schedule(1, [] {});
    EXPECT_TRUE(eq.runOne());
    EXPECT_FALSE(eq.runOne());
}

TEST(ClockDomain, Conversions)
{
    ClockDomain clk(1250); // DDR4-1600 bus clock
    EXPECT_EQ(clk.period(), 1250u);
    EXPECT_EQ(clk.cyclesToTicks(Cycles{22}), 27500u);
    EXPECT_EQ(clk.ticksToCycles(27500), Cycles{22});
    EXPECT_NEAR(clk.frequencyMHz(), 800.0, 1e-9);
}

TEST(ClockDomain, NextEdge)
{
    ClockDomain clk(1000);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(0), 0u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(1), 1000u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(1000), 1000u);
    EXPECT_EQ(clk.nextEdgeAtOrAfter(1001), 2000u);
}

TEST(Stats, CounterAccumulates)
{
    StatRegistry reg;
    Counter &c = reg.counter("a.b");
    c += 2.5;
    ++c;
    EXPECT_DOUBLE_EQ(reg.counterValue("a.b"), 3.5);
    EXPECT_DOUBLE_EQ(reg.counterValue("missing"), 0.0);
}

TEST(Stats, SameNameSameCounter)
{
    StatRegistry reg;
    reg.counter("x") += 1;
    reg.counter("x") += 1;
    EXPECT_DOUBLE_EQ(reg.counterValue("x"), 2.0);
}

TEST(Stats, SumMatching)
{
    StatRegistry reg;
    reg.counter("dimm0.reads") += 5;
    reg.counter("dimm1.reads") += 7;
    reg.counter("dimm0.writes") += 100;
    EXPECT_DOUBLE_EQ(reg.sumMatching(".reads"), 12.0);
}

TEST(Stats, VectorCounterStatistics)
{
    StatRegistry reg;
    VectorCounter &v = reg.vectorCounter("chips", 4);
    v[0] = 10;
    v[1] = 10;
    v[2] = 10;
    v[3] = 10;
    EXPECT_DOUBLE_EQ(v.total(), 40.0);
    EXPECT_DOUBLE_EQ(v.mean(), 10.0);
    EXPECT_DOUBLE_EQ(v.cov(), 0.0);
    v[3] = 40;
    EXPECT_GT(v.cov(), 0.5);
    EXPECT_DOUBLE_EQ(v.maxValue(), 40.0);
    EXPECT_DOUBLE_EQ(v.minValue(), 10.0);
}

TEST(Stats, SampleStatMoments)
{
    SampleStat s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(s.maxValue(), 4.0);
    EXPECT_NEAR(s.stddev(), 1.1180, 1e-3);
}

TEST(Stats, SampleStatHistogramPercentiles)
{
    SampleStat s;
    for (int i = 1; i <= 1000; ++i)
        s.sample(double(i));
    // Power-of-two buckets: the estimate lands within the true
    // value's bucket, i.e. within a factor of two.
    const double p50 = s.percentile(0.50);
    const double p99 = s.percentile(0.99);
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 1024.0);
    EXPECT_GE(p99, 512.0);
    EXPECT_LE(p99, 1000.0); // clamped to maxValue()
    EXPECT_LE(p50, p99);
    // Estimates stay inside the observed range (clamped to the
    // true extremes) and within a 2x bucket of them.
    EXPECT_GE(s.percentile(0.0), 1.0);
    EXPECT_LE(s.percentile(0.0), 2.0);
    EXPECT_GE(s.percentile(1.0), 512.0);
    EXPECT_LE(s.percentile(1.0), 1000.0);
}

TEST(Stats, SampleStatHistogramEmptyAndSingle)
{
    SampleStat s;
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
    s.sample(42.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 42.0);
}

TEST(Stats, SampleStatsAccessor)
{
    StatRegistry reg;
    reg.sampleStat("a.latency").sample(1.0);
    reg.sampleStat("b.latency").sample(2.0);
    const auto &all = reg.sampleStats();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all.count("a.latency"), 1u);
    EXPECT_DOUBLE_EQ(all.at("b.latency").mean(), 2.0);
}

TEST(Stats, QuantileSortedCeilRankRule)
{
    const std::vector<double> v{10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(quantileSorted(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(quantileSorted(v, 0.25), 10.0);
    EXPECT_DOUBLE_EQ(quantileSorted(v, 0.5), 20.0);
    EXPECT_DOUBLE_EQ(quantileSorted(v, 0.99), 40.0);
    EXPECT_DOUBLE_EQ(quantileSorted(v, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(quantileSorted({}, 0.5), 0.0);
}

TEST(Stats, ResetAllZeroes)
{
    StatRegistry reg;
    reg.counter("c") += 5;
    reg.vectorCounter("v", 2)[0] = 3;
    reg.sampleStat("s").sample(9);
    reg.resetAll();
    EXPECT_DOUBLE_EQ(reg.counterValue("c"), 0.0);
    EXPECT_DOUBLE_EQ(reg.vectorCounters().at("v").total(), 0.0);
}

TEST(SimObject, NamesAndStats)
{
    EventQueue eq;
    StatRegistry reg;

    struct Widget : SimObject
    {
        Widget(EventQueue &eq, StatRegistry &reg)
            : SimObject("widget", eq, reg)
        {}
        void bump() { ++stat("bumps"); }
    } widget(eq, reg);

    widget.bump();
    widget.bump();
    EXPECT_EQ(widget.name(), "widget");
    EXPECT_DOUBLE_EQ(reg.counterValue("widget.bumps"), 2.0);
}

} // namespace
} // namespace beacon
