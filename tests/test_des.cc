/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * cancellation, and the Resource / LinkModel primitives — plus
 * end-to-end determinism of the full distributed-training simulation
 * (same config + seed must be bit-identical, different seeds must
 * diverge once service noise is on).
 */
#include <gtest/gtest.h>

#include <vector>

#include "des/event_queue.h"
#include "des/sim_object.h"
#include "sim/dist_sim.h"
#include "util/random.h"

namespace recsim::des {
namespace {

TEST(Ticks, SecondConversionsRoundTrip)
{
    EXPECT_EQ(secondsToTicks(1.0), kTicksPerSecond);
    EXPECT_EQ(secondsToTicks(1.5e-6), 1500u);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kTicksPerSecond), 1.0);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TieBreaksByPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); }, 5);
    eq.schedule(10, [&] { order.push_back(2); }, 0);
    eq.schedule(10, [&] { order.push_back(3); }, 5);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] {
        eq.scheduleAfter(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, DescheduleCancelsPendingEvent)
{
    EventQueue eq;
    int fired = 0;
    const auto id = eq.schedule(10, [&] { ++fired; });
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id));
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunLimitStopsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    const auto executed = eq.run(50);
    EXPECT_EQ(executed, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PendingCountTracksScheduleAndRun)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pendingEvents(), 2u);
    eq.step();
    EXPECT_EQ(eq.pendingEvents(), 1u);
    eq.run();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.eventsExecuted(), 2u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

TEST(Resource, ServesFifoAtConfiguredRate)
{
    EventQueue eq;
    Resource res(eq, "mem", 100.0);  // 100 units/s
    const Tick first = res.acquire(50.0);   // 0.5 s
    const Tick second = res.acquire(25.0);  // queues behind first
    EXPECT_EQ(first, secondsToTicks(0.5));
    EXPECT_EQ(second, secondsToTicks(0.75));
    EXPECT_DOUBLE_EQ(res.busySeconds(), 0.75);
}

TEST(Resource, AcquireAtWaitsForEarliest)
{
    EventQueue eq;
    Resource res(eq, "cpu", 1.0);
    const Tick done = res.acquireAt(secondsToTicks(2.0), 1.0);
    EXPECT_EQ(done, secondsToTicks(3.0));
    // Idle gap [0, 2) does not count as busy.
    EXPECT_DOUBLE_EQ(res.busySeconds(), 1.0);
}

TEST(Resource, UtilizationOverWindow)
{
    EventQueue eq;
    Resource res(eq, "cpu", 1.0);
    res.acquire(1.0);
    EXPECT_NEAR(res.utilization(secondsToTicks(2.0)), 0.5, 1e-9);
    EXPECT_NEAR(res.utilization(secondsToTicks(1.0)), 1.0, 1e-9);
}

TEST(ResourceDeath, NonPositiveRatePanics)
{
    EventQueue eq;
    EXPECT_DEATH(Resource(eq, "bad", 0.0), "positive rate");
}

TEST(LinkModel, TransferAddsLatency)
{
    EventQueue eq;
    LinkModel link(eq, "nic", 1000.0, secondsToTicks(0.1));
    const Tick done = link.transfer(500.0);
    EXPECT_EQ(done, secondsToTicks(0.6));
}

TEST(LinkModel, BackToBackTransfersQueueOnBandwidthOnly)
{
    EventQueue eq;
    LinkModel link(eq, "nic", 1000.0, secondsToTicks(0.1));
    const Tick a = link.transfer(1000.0);
    const Tick b = link.transfer(1000.0);
    // Serialization queues; latency overlaps (pipelined wire).
    EXPECT_EQ(a, secondsToTicks(1.1));
    EXPECT_EQ(b, secondsToTicks(2.1));
}

TEST(Determinism, SameScheduleSameExecution)
{
    auto run_once = [] {
        EventQueue eq;
        std::vector<int> order;
        for (int i = 0; i < 50; ++i)
            eq.schedule(static_cast<Tick>((i * 37) % 17),
                        [&order, i] { order.push_back(i); });
        eq.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Determinism, SeededRandomScheduleIsReproducible)
{
    // A schedule drawn from a seeded stream — including time ties —
    // must execute identically on every run.
    auto run_once = [](uint64_t seed) {
        util::Rng rng(seed);
        EventQueue eq;
        std::vector<int> order;
        for (int i = 0; i < 200; ++i) {
            const Tick when = rng.uniformInt(20);
            const int priority = static_cast<int>(rng.uniformInt(4));
            eq.schedule(when, [&order, i] { order.push_back(i); },
                        priority);
        }
        eq.run();
        return order;
    };
    EXPECT_EQ(run_once(7), run_once(7));
    EXPECT_NE(run_once(7), run_once(8));
}

// ---------------------------------------------------------------------
// Full-simulation determinism (sim::DistSim on the DES kernel)
// ---------------------------------------------------------------------

sim::DistSimConfig
smallCpuSim(uint64_t seed)
{
    sim::DistSimConfig cfg;
    cfg.model =
        model::DlrmConfig::testSuite(64, 8, 100000, 128, 2, 4.0, 16);
    cfg.system = cost::SystemConfig::cpuSetup(2, 1, 1, 512, 2);
    cfg.measure_seconds = 0.05;
    cfg.service_noise_sigma = 0.25;  // noise on: determinism is earned
    cfg.seed = seed;
    return cfg;
}

TEST(DistSimDeterminism, SameConfigSameSeedIsBitIdentical)
{
    const auto a = sim::runDistSim(smallCpuSim(5));
    const auto b = sim::runDistSim(smallCpuSim(5));
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_GT(a.iterations, 0u);

    // Bit-identical, not approximately equal: the DES executes the
    // same event sequence, so every derived number matches exactly.
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.mean_iteration_seconds, b.mean_iteration_seconds);
    ASSERT_EQ(a.utilization.size(), b.utilization.size());
    for (const auto& [name, value] : a.utilization) {
        const auto it = b.utilization.find(name);
        ASSERT_NE(it, b.utilization.end()) << name;
        EXPECT_EQ(value, it->second) << name;
    }
}

TEST(DistSimDeterminism, DifferentSeedDiverges)
{
    const auto a = sim::runDistSim(smallCpuSim(5));
    const auto b = sim::runDistSim(smallCpuSim(6));
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    // With lognormal service noise the sampled demands differ, so the
    // measured outcome cannot coincide across seeds.
    EXPECT_FALSE(a.throughput == b.throughput &&
                 a.mean_iteration_seconds == b.mean_iteration_seconds);
}

TEST(DistSimDeterminism, NoiselessRunIgnoresSeed)
{
    auto cfg_a = smallCpuSim(5);
    auto cfg_b = smallCpuSim(9);
    cfg_a.service_noise_sigma = 0.0;
    cfg_b.service_noise_sigma = 0.0;
    const auto a = sim::runDistSim(cfg_a);
    const auto b = sim::runDistSim(cfg_b);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.iterations, b.iterations);
}

} // namespace
} // namespace recsim::des
