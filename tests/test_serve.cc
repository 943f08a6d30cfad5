/**
 * @file
 * The serving test wall: property tests for the seeded load generator
 * (bit-reproducibility across runs and thread-pool sizes, Poisson
 * inter-arrival mean, diurnal modulation integrating back to the mean
 * rate), invariant tests for the dynamic batching scheduler (deadline,
 * caps, FIFO, starvation freedom) and a replay smoke test over the real
 * inference engine.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "obs/flight_recorder.h"
#include "serve/engine.h"
#include "serve/load_gen.h"
#include "serve/scheduler.h"
#include "util/thread_pool.h"

namespace recsim::serve {
namespace {

LoadGenConfig
steadyConfig(double qps, uint64_t seed = 11)
{
    LoadGenConfig cfg;
    cfg.seed = seed;
    cfg.mean_qps = qps;
    cfg.diurnal_amplitude = 0.0;
    cfg.sla_s = 0.05;
    return cfg;
}

Query
makeQuery(uint64_t id, double arrival, std::size_t candidates,
          double deadline)
{
    Query q;
    q.id = id;
    q.arrival_s = arrival;
    q.candidates = candidates;
    q.deadline_s = deadline;
    return q;
}

bool
sameQuery(const Query& a, const Query& b)
{
    return a.id == b.id && a.candidates == b.candidates &&
        std::memcmp(&a.arrival_s, &b.arrival_s, sizeof(double)) == 0 &&
        std::memcmp(&a.deadline_s, &b.deadline_s, sizeof(double)) == 0;
}

// ---------------------------------------------------------------
// Load generator properties
// ---------------------------------------------------------------

TEST(LoadGenerator, SameSeedIsBitReproducible)
{
    LoadGenConfig cfg = steadyConfig(500.0);
    cfg.diurnal_amplitude = 0.4;
    cfg.diurnal_period_s = 2.0;
    LoadGenerator a(cfg), b(cfg);
    const auto qa = a.generate(8.0);
    const auto qb = b.generate(8.0);
    ASSERT_EQ(qa.size(), qb.size());
    ASSERT_GT(qa.size(), 100u);
    for (std::size_t i = 0; i < qa.size(); ++i)
        ASSERT_TRUE(sameQuery(qa[i], qb[i])) << "query " << i;
}

TEST(LoadGenerator, BitReproducibleAcrossThreadPoolSizes)
{
    // Generation never touches the pool, so the stream must be
    // byte-identical whatever RECSIM_THREADS would have been.
    LoadGenConfig cfg = steadyConfig(300.0, 23);
    cfg.diurnal_amplitude = 0.5;
    cfg.diurnal_period_s = 1.0;
    auto& pool = util::globalThreadPool();

    pool.resize(1);
    LoadGenerator a(cfg);
    const auto qa = a.generate(4.0);
    pool.resize(8);
    LoadGenerator b(cfg);
    const auto qb = b.generate(4.0);
    pool.resize(1);

    ASSERT_EQ(qa.size(), qb.size());
    for (std::size_t i = 0; i < qa.size(); ++i)
        ASSERT_TRUE(sameQuery(qa[i], qb[i])) << "query " << i;
}

TEST(LoadGenerator, InterArrivalMeanMatchesRate)
{
    const double qps = 800.0;
    LoadGenerator gen(steadyConfig(qps, 5));
    const std::size_t n = 20000;
    double prev = 0.0, sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const Query q = gen.next();
        ASSERT_GT(q.arrival_s, prev);
        sum += q.arrival_s - prev;
        prev = q.arrival_s;
    }
    const double mean_gap = sum / static_cast<double>(n);
    // Mean of n exponentials has sd = (1/lambda)/sqrt(n) ~ 0.7%;
    // 4 sigma of headroom.
    EXPECT_NEAR(mean_gap, 1.0 / qps, 0.03 / qps);
}

TEST(LoadGenerator, DiurnalModulationIntegratesToMeanRate)
{
    // Over whole periods the sinusoid cancels: the count must match
    // mean_qps * duration like the unmodulated process.
    LoadGenConfig cfg = steadyConfig(500.0, 9);
    cfg.diurnal_amplitude = 0.8;
    cfg.diurnal_period_s = 5.0;
    LoadGenerator gen(cfg);
    const double duration = 40.0;  // 8 whole periods.
    const auto queries = gen.generate(duration);
    const double expected = cfg.mean_qps * duration;
    // Poisson sd = sqrt(20000) ~ 0.7% of the mean; 4 sigma headroom.
    EXPECT_NEAR(static_cast<double>(queries.size()), expected,
                0.03 * expected);
}

TEST(LoadGenerator, RateOscillatesWithinBandAndStaysPositive)
{
    LoadGenConfig cfg = steadyConfig(100.0);
    cfg.diurnal_amplitude = 0.9;
    cfg.diurnal_period_s = 4.0;
    LoadGenerator gen(cfg);
    double lo = 1e300, hi = -1e300;
    for (double t = 0.0; t < 8.0; t += 0.01) {
        const double r = gen.rate(t);
        EXPECT_GT(r, 0.0);
        lo = std::min(lo, r);
        hi = std::max(hi, r);
    }
    EXPECT_NEAR(lo, 100.0 * 0.1, 1.0);
    EXPECT_NEAR(hi, 100.0 * 1.9, 1.0);
}

TEST(LoadGenerator, QueriesCarryDeadlinesAndBoundedSizes)
{
    LoadGenConfig cfg = steadyConfig(200.0, 77);
    cfg.sla_s = 0.02;
    cfg.mean_candidates = 32.0;
    cfg.min_candidates = 4;
    cfg.max_candidates = 64;
    LoadGenerator gen(cfg);
    double mean = 0.0;
    const std::size_t n = 5000;
    for (std::size_t i = 0; i < n; ++i) {
        const Query q = gen.next();
        EXPECT_EQ(q.id, i);
        EXPECT_DOUBLE_EQ(q.deadline_s, q.arrival_s + cfg.sla_s);
        EXPECT_GE(q.candidates, cfg.min_candidates);
        EXPECT_LE(q.candidates, cfg.max_candidates);
        mean += static_cast<double>(q.candidates);
    }
    mean /= static_cast<double>(n);
    // Clamping biases the lognormal mean a little; generous band.
    EXPECT_NEAR(mean, cfg.mean_candidates, 6.0);
}

TEST(LoadGenerator, LoadForModelScalesQuerySizeByLookupWork)
{
    const auto light = model::DlrmConfig::tinyReplica(4, 8, 500, 8);
    const auto heavy = model::DlrmConfig::m3Prod();
    const auto light_cfg = loadForModel(light, 100.0, 0.05);
    const auto heavy_cfg = loadForModel(heavy, 100.0, 0.05);
    // Lookup-heavy models must get fewer candidates per query.
    EXPECT_GT(light_cfg.mean_candidates, heavy_cfg.mean_candidates);
    EXPECT_GE(heavy_cfg.mean_candidates, 8.0);
    EXPECT_LE(light_cfg.mean_candidates, 256.0);
    // Distinct models get distinct (stable) stream seeds.
    EXPECT_NE(light_cfg.seed, heavy_cfg.seed);
    EXPECT_EQ(heavy_cfg.seed, loadForModel(heavy, 7.0, 0.1).seed);
}

// ---------------------------------------------------------------
// Scheduler invariants
// ---------------------------------------------------------------

TEST(BatchScheduler, NeverBatchesAQueryPastItsDeadline)
{
    BatchingConfig cfg;
    cfg.max_batch_queries = 8;
    cfg.max_wait_s = 0.0;
    BatchScheduler sched(cfg);
    // Head expires before the engine frees up; the later query is
    // still in time.
    sched.enqueue(makeQuery(0, 0.00, 1, 0.01));
    sched.enqueue(makeQuery(1, 0.00, 1, 0.50));
    const double start = 0.10;  // Engine was busy until t=0.10.
    const Batch batch = sched.pop(start);
    for (const Query& q : batch.queries)
        EXPECT_GE(q.deadline_s, start) << "query " << q.id;
    ASSERT_EQ(batch.queries.size(), 1u);
    EXPECT_EQ(batch.queries[0].id, 1u);
    const auto evicted = sched.drainEvicted();
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0].id, 0u);
    EXPECT_EQ(sched.evictedCount(), 1u);
}

TEST(BatchScheduler, RespectsQueryCountCap)
{
    BatchingConfig cfg;
    cfg.max_batch_queries = 3;
    cfg.max_batch_items = 1000000;
    cfg.max_wait_s = 0.0;
    BatchScheduler sched(cfg);
    for (uint64_t i = 0; i < 10; ++i)
        sched.enqueue(makeQuery(i, 0.0, 1, 1.0));
    std::size_t popped = 0;
    while (!sched.idle()) {
        const Batch b = sched.pop(0.0);
        EXPECT_LE(b.queries.size(), cfg.max_batch_queries);
        EXPECT_FALSE(b.queries.empty());
        popped += b.queries.size();
    }
    EXPECT_EQ(popped, 10u);
    EXPECT_EQ(sched.evictedCount(), 0u);
}

TEST(BatchScheduler, RespectsItemCapButServesOversizedAlone)
{
    BatchingConfig cfg;
    cfg.max_batch_queries = 64;
    cfg.max_batch_items = 100;
    cfg.max_wait_s = 0.0;
    BatchScheduler sched(cfg);
    sched.enqueue(makeQuery(0, 0.0, 40, 1.0));
    sched.enqueue(makeQuery(1, 0.0, 40, 1.0));
    sched.enqueue(makeQuery(2, 0.0, 40, 1.0));   // 120 > 100: next batch.
    sched.enqueue(makeQuery(3, 0.0, 500, 1.0));  // Oversized: alone.
    sched.enqueue(makeQuery(4, 0.0, 10, 1.0));

    Batch b = sched.pop(0.0);
    EXPECT_EQ(b.queries.size(), 2u);
    EXPECT_LE(b.totalItems(), cfg.max_batch_items);

    b = sched.pop(0.0);
    ASSERT_EQ(b.queries.size(), 1u);
    EXPECT_EQ(b.queries[0].id, 2u);

    b = sched.pop(0.0);  // Oversized query dispatches alone.
    ASSERT_EQ(b.queries.size(), 1u);
    EXPECT_EQ(b.queries[0].id, 3u);
    EXPECT_EQ(b.totalItems(), 500u);

    b = sched.pop(0.0);
    ASSERT_EQ(b.queries.size(), 1u);
    EXPECT_EQ(b.queries[0].id, 4u);
    EXPECT_TRUE(sched.idle());
}

TEST(BatchScheduler, PreservesFifoOrderWithinAndAcrossBatches)
{
    BatchingConfig cfg;
    cfg.max_batch_queries = 4;
    cfg.max_wait_s = 0.0;
    BatchScheduler sched(cfg);
    for (uint64_t i = 0; i < 13; ++i)
        sched.enqueue(
            makeQuery(i, 0.001 * static_cast<double>(i), 1, 1.0));
    uint64_t expected = 0;
    while (!sched.idle()) {
        const Batch b = sched.pop(1.0 /* all arrived, none expired */);
        for (const Query& q : b.queries)
            EXPECT_EQ(q.id, expected++) << "FIFO order broken";
    }
    EXPECT_EQ(expected, 13u);
}

TEST(BatchScheduler, DoesNotBatchQueriesThatHaveNotArrived)
{
    BatchingConfig cfg;
    cfg.max_batch_queries = 8;
    cfg.max_wait_s = 0.0;
    BatchScheduler sched(cfg);
    sched.enqueue(makeQuery(0, 0.0, 1, 1.0));
    sched.enqueue(makeQuery(1, 0.5, 1, 1.0));  // Future arrival.
    const Batch b = sched.pop(0.1);
    ASSERT_EQ(b.queries.size(), 1u);
    EXPECT_EQ(b.queries[0].id, 0u);
    EXPECT_EQ(sched.pendingQueries(), 1u);
}

TEST(BatchScheduler, MaxWaitBoundsHeadOfLineWaiting)
{
    // Starvation freedom: a lone trickle query must release by
    // arrival + max_wait even though the batch never fills.
    BatchingConfig cfg;
    cfg.max_batch_queries = 64;
    cfg.max_batch_items = 1 << 20;
    cfg.max_wait_s = 0.01;
    BatchScheduler sched(cfg);
    for (uint64_t i = 0; i < 20; ++i) {
        const double arrival = static_cast<double>(i);  // 1 qps.
        sched.enqueue(makeQuery(i, arrival, 8, arrival + 10.0));
        const double release = sched.releaseTime(arrival);
        EXPECT_LE(release, arrival + cfg.max_wait_s)
            << "query " << i << " starved";
        EXPECT_GE(release, arrival);
        const Batch b = sched.pop(release);
        ASSERT_EQ(b.queries.size(), 1u);
        EXPECT_EQ(b.queries[0].id, i);
    }
    EXPECT_EQ(sched.evictedCount(), 0u);
}

TEST(BatchScheduler, ReleasesEarlyWhenQueuedQueriesFillACap)
{
    BatchingConfig cfg;
    cfg.max_batch_queries = 3;
    cfg.max_batch_items = 1 << 20;
    cfg.max_wait_s = 1.0;  // Generous; the cap must cut it short.
    BatchScheduler sched(cfg);
    sched.enqueue(makeQuery(0, 0.00, 1, 10.0));
    sched.enqueue(makeQuery(1, 0.01, 1, 10.0));
    EXPECT_DOUBLE_EQ(sched.releaseTime(0.0), 1.0);  // Head + max_wait.
    sched.enqueue(makeQuery(2, 0.02, 1, 10.0));     // Cap saturated.
    EXPECT_DOUBLE_EQ(sched.releaseTime(0.0), 0.02);
    const Batch b = sched.pop(0.02);
    EXPECT_EQ(b.queries.size(), 3u);
}

TEST(BatchScheduler, ReleaseNeverHeldPastHeadDeadline)
{
    BatchingConfig cfg;
    cfg.max_batch_queries = 64;
    cfg.max_wait_s = 1.0;
    BatchScheduler sched(cfg);
    sched.enqueue(makeQuery(0, 0.0, 1, 0.005));  // Tight deadline.
    EXPECT_DOUBLE_EQ(sched.releaseTime(0.0), 0.005);
}

// ---------------------------------------------------------------
// End-to-end replay over the real engine
// ---------------------------------------------------------------

TEST(InferenceEngine, ReplayAccountsForEveryQuery)
{
    const auto cfg = model::DlrmConfig::tinyReplica(4, 8, 500, 8);
    InferenceEngine engine(cfg, 1);
    LoadGenConfig load = steadyConfig(2000.0, 3);
    load.mean_candidates = 16.0;
    load.max_candidates = 64;
    load.sla_s = 0.5;
    LoadGenerator gen(load);
    const auto queries = gen.generate(0.2);
    ASSERT_GT(queries.size(), 50u);

    ReplayConfig rc;
    rc.batching.max_batch_queries = 8;
    rc.batching.max_batch_items = 256;
    rc.batching.max_wait_s = 0.001;
    const ServeReport report = engine.replay(queries, rc);

    EXPECT_EQ(report.offered, queries.size());
    EXPECT_EQ(report.served + report.evicted, report.offered);
    EXPECT_GT(report.batches, 0u);
    EXPECT_GT(report.achieved_qps, 0.0);
    EXPECT_GE(report.makespan_s, report.duration_s);
    EXPECT_GT(report.busy_s, 0.0);
    EXPECT_LE(report.busy_s, report.makespan_s + 1e-9);
    // Percentiles of a latency population are ordered by definition.
    EXPECT_EQ(report.latency.count, report.served);
    EXPECT_GT(report.latency.p50, 0.0);
    EXPECT_LE(report.latency.p50, report.latency.p95);
    EXPECT_LE(report.latency.p95, report.latency.p99);
    EXPECT_LE(report.latency.p99, report.latency.max);
    EXPECT_GE(report.sla_violation_rate, 0.0);
    EXPECT_LE(report.sla_violation_rate, 1.0);
    EXPECT_GE(report.mean_batch_queries, 1.0);
    EXPECT_LE(report.mean_batch_queries,
              static_cast<double>(rc.batching.max_batch_queries));
}

TEST(InferenceEngine, ReplayWindowedLatencyHistogramIsConsistent)
{
    const auto cfg = model::DlrmConfig::tinyReplica(4, 8, 500, 8);
    InferenceEngine engine(cfg, 1);
    LoadGenConfig load = steadyConfig(2000.0, 7);
    load.mean_candidates = 16.0;
    load.max_candidates = 64;
    load.sla_s = 0.5;
    LoadGenerator gen(load);
    const auto queries = gen.generate(0.4);
    ASSERT_GT(queries.size(), 100u);

    ReplayConfig rc;
    rc.batching.max_batch_queries = 8;
    rc.batching.max_batch_items = 256;
    rc.batching.max_wait_s = 0.001;
    rc.latency_window_s = 0.05;
    const ServeReport report = engine.replay(queries, rc);
    ASSERT_GT(report.served, 0u);
    ASSERT_FALSE(report.windows.empty());

    std::size_t windowed = 0;
    std::size_t prev_index = 0;
    bool first = true;
    for (const auto& w : report.windows) {
        if (!first) {
            EXPECT_GT(w.index, prev_index);  // strictly increasing
        }
        first = false;
        prev_index = w.index;
        // Windows are keyed on the virtual completion clock.
        EXPECT_DOUBLE_EQ(w.start_s, static_cast<double>(w.index) *
                                        rc.latency_window_s);
        EXPECT_DOUBLE_EQ(w.end_s, w.start_s + rc.latency_window_s);
        ASSERT_GT(w.tail.count, 0u);
        windowed += w.tail.count;
        EXPECT_GT(w.tail.p50, 0.0);
        EXPECT_LE(w.tail.p50, w.tail.p95);
        EXPECT_LE(w.tail.p95, w.tail.p99);
        EXPECT_LE(w.tail.p99, w.tail.max + 1e-12);
    }
    // Every served query lands in exactly one window, and the merged
    // whole-run tail covers the same population.
    EXPECT_EQ(windowed, report.served);
    EXPECT_EQ(report.latency.count, report.served);
}

#ifndef RECSIM_OBS_DISABLED
TEST(InferenceEngine, ReplayRecordsBatchChannelsInFlightRecorder)
{
    auto& rec = obs::FlightRecorder::global();
    rec.configure(1 << 14);
    rec.setEnabled(true);

    const auto cfg = model::DlrmConfig::tinyReplica(4, 8, 500, 8);
    InferenceEngine engine(cfg, 1);
    LoadGenConfig load = steadyConfig(2000.0, 5);
    load.sla_s = 0.5;
    LoadGenerator gen(load);
    const auto queries = gen.generate(0.1);
    ReplayConfig rc;
    rc.batching.max_batch_queries = 8;
    rc.batching.max_wait_s = 0.001;
    const ServeReport report = engine.replay(queries, rc);

    rec.setEnabled(false);
    const uint32_t batch_ch = rec.internChannel("serve.batch_s");
    const uint32_t queue_ch = rec.internChannel("serve.queue_depth");
    std::size_t batch_samples = 0, queue_samples = 0;
    for (const auto& sample : rec.snapshot()) {
        if (sample.channel == batch_ch) {
            ++batch_samples;
            EXPECT_GE(sample.value, 0.0);  // service seconds
            EXPECT_GT(sample.rows, 0u);    // batch items
        } else if (sample.channel == queue_ch) {
            ++queue_samples;
        }
    }
    // One sample per retired batch on each channel (capacity is far
    // above the batch count, so nothing wrapped).
    EXPECT_EQ(batch_samples, report.batches);
    EXPECT_EQ(queue_samples, report.batches);
    rec.reset();
}
#endif  // RECSIM_OBS_DISABLED

TEST(InferenceEngine, ServesForwardOnlyGraph)
{
    const auto cfg = model::DlrmConfig::tinyReplica(4, 8, 500, 8);
    InferenceEngine engine(cfg, 1);
    const auto& g = engine.forwardGraph();
    EXPECT_TRUE(g.validate().empty());
    for (const auto& node : g.nodes) {
        EXPECT_NE(node.kind, graph::NodeKind::Loss);
        EXPECT_NE(node.kind, graph::NodeKind::OptimizerUpdate);
        EXPECT_NE(node.kind, graph::NodeKind::Comm);
    }
    data::DatasetConfig ds_cfg;
    ds_cfg.num_dense = cfg.num_dense;
    ds_cfg.sparse = cfg.sparse;
    data::SyntheticCtrDataset ds(ds_cfg);
    const auto mb = ds.nextBatch(17);
    const double service = engine.scoreBatch(mb);
    EXPECT_GE(service, 0.0);
    EXPECT_EQ(engine.logits().rows(), 17u);
}

} // namespace
} // namespace recsim::serve
