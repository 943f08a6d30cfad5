/**
 * @file
 * serve: an M1-like serving replica (production MLP widths, capped
 * tables) behind a max_wait batching policy, driven through
 * serve::InferenceEngine::replay on its virtual clock.
 *  - Phase A: open-loop Poisson arrivals (loadForModel query sizes, no
 *    diurnal swing) at one fixed rate, about a third of the engine's
 *    capacity on the reference host, under a fixed SLO. Latency is
 *    measured from each query's scheduled arrival.
 *  - Phase B: a rate far above capacity with no effective deadline;
 *    completed queries per virtual second is the offline capacity.
 * Every input except the seed is a constant: the rate, SLO and caps
 * are never derived from a measured service time.
 */
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "bench.h"
#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/dlrm.h"
#include "obs/pool_metrics.h"
#include "serve/engine.h"
#include "serve/load_gen.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace recsim;

namespace {

model::DlrmConfig
servingModel()
{
    model::DlrmConfig m = model::DlrmConfig::m1Prod();
    m.name = "perfbench_m1_like";
    // Production widths stay (800 dense, bottom 512, top 512^3, dim
    // 64); tables are capped so the replica holds ~60 MB of embeddings.
    for (auto& f : m.sparse) {
        f.hash_size = std::min<uint64_t>(f.hash_size, 8192);
        f.raw_id_space = 0;
    }
    return m;
}

/** The batching policy: max_wait with constant caps and wait. */
serve::BatchingConfig
policy()
{
    serve::BatchingConfig b;
    b.max_batch_queries = 16;
    b.max_batch_items = 1024;
    b.max_wait_s = 0.002;
    return b;
}

constexpr double kPhaseAQps = 220.0;
constexpr double kPhaseASlo = 0.1;
constexpr std::size_t kPhaseAQueries = 4000;
constexpr double kPhaseBQps = 1e6;
constexpr std::size_t kPhaseBQueries = 1024;
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kProbeRepeats = 20;

serve::LoadGenConfig
loadConfig(const model::DlrmConfig& m, double qps, double sla_s,
           uint64_t seed)
{
    serve::LoadGenConfig cfg = serve::loadForModel(m, qps, sla_s);
    cfg.seed ^= seed * 0x9e3779b97f4a7c15ULL;
    return cfg;
}

/** Queries of a trace: the first @p n arrivals of the stream. */
std::vector<serve::Query>
trace(const serve::LoadGenConfig& cfg, std::size_t n)
{
    serve::LoadGenerator gen(cfg);
    Scoped span("serve.loadgen");
    // generate() drains a time window; ask for enough expected
    // arrivals and keep the first n.
    std::vector<serve::Query> queries =
        gen.generate(1.5 * static_cast<double>(n) / cfg.mean_qps);
    while (queries.size() < n)
        queries.push_back(gen.next());
    queries.resize(n);
    return queries;
}

struct Setup
{
    std::unique_ptr<serve::InferenceEngine> engine;
    std::vector<serve::Query> phase_a;
    std::vector<serve::Query> phase_b;
};

Setup
setUp(const model::DlrmConfig& m, uint64_t seed)
{
    Setup s;
    {
        Scoped span("serve.engine_init");
        s.engine = std::make_unique<serve::InferenceEngine>(m, 1);
    }
    s.phase_a = trace(loadConfig(m, kPhaseAQps, kPhaseASlo, seed),
                      kPhaseAQueries);
    s.phase_b = trace(loadConfig(m, kPhaseBQps, 1e9, seed + 1),
                      kPhaseBQueries);
    return s;
}

bool
sameBits(const tensor::Tensor& a, const tensor::Tensor& b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Mean wall seconds of scoreBatch on @p batch. */
double
timeScore(serve::InferenceEngine& engine, const data::MiniBatch& batch,
          const char* name)
{
    double total = 0.0;
    for (std::size_t i = 0; i < kProbeRepeats; ++i) {
        Scoped span(name);
        total += engine.scoreBatch(batch);
    }
    return total / static_cast<double>(kProbeRepeats);
}

/** Overload replays until @p seconds of host time are spent. */
struct Capacity
{
    /** Capacity of the slowest replay, and over all replays. */
    double slowest_qps = 0.0;
    double qps = 0.0;
    std::size_t served = 0;
    std::size_t offered = 0;
    std::size_t evicted = 0;
    std::size_t replays = 0;
};

Capacity
measureCapacity(serve::InferenceEngine& engine,
                const std::vector<serve::Query>& queries,
                const serve::ReplayConfig& config, double seconds)
{
    Capacity c;
    double makespan = 0.0;
    const double start = nowSeconds();
    do {
        Scoped span("serve.replay_overload");
        const serve::ServeReport r = engine.replay(queries, config);
        c.served += r.served;
        c.offered += r.offered;
        c.evicted += r.evicted;
        makespan += r.makespan_s;
        const double qps = static_cast<double>(r.served) / r.makespan_s;
        c.slowest_qps = c.replays == 0 ? qps : std::min(c.slowest_qps, qps);
        ++c.replays;
    } while (nowSeconds() - start < seconds);
    c.qps = static_cast<double>(c.served) / makespan;
    return c;
}

} // namespace

Result
runServe(const Options& options)
{
    Result result;
    util::globalThreadPool().resize(kPoolThreads);
    printHostBlock(options, kPoolThreads);
    const model::DlrmConfig m = servingModel();
    const serve::LoadGenConfig lg =
        loadConfig(m, kPhaseAQps, kPhaseASlo, options.seed);
    std::cout << "model " << m.summary() << "\n"
              << "policy max_wait: " << policy().max_batch_queries
              << " queries, " << policy().max_batch_items
              << " items, wait " << policy().max_wait_s * 1e3
              << " ms; " << lg.mean_candidates
              << " candidates per query on average\n"
              << "phase A: open loop, Poisson " << kPhaseAQps
              << " queries/s, SLO " << kPhaseASlo * 1e3 << " ms, "
              << kPhaseAQueries << " queries; phase B: " << kPhaseBQps
              << " queries/s offered (overload)\n";

    if (options.trace)
        spans().enable();
    std::vector<double> setup_s;
    Setup s;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        s = Setup{};
        const double t0 = nowSeconds();
        s = setUp(m, options.seed);
        setup_s.push_back(nowSeconds() - t0);
    }
    serve::InferenceEngine& engine = *s.engine;

    serve::ReplayConfig config;
    config.batching = policy();
    config.data_seed = options.seed;

    // Serving scores must be bitwise-equal to the training forward.
    data::DatasetConfig ds_cfg;
    ds_cfg.num_dense = m.num_dense;
    ds_cfg.sparse = m.sparse;
    ds_cfg.seed = options.seed + 7;
    data::SyntheticCtrDataset probes(ds_cfg);
    const auto mean_items =
        static_cast<std::size_t>(std::lround(lg.mean_candidates));
    const data::MiniBatch small = probes.nextBatch(mean_items);
    const data::MiniBatch large =
        probes.nextBatch(mean_items * policy().max_batch_queries);
    {
        model::Dlrm reference(m, 1);
        tensor::Tensor expected;
        reference.forward(small, expected);
        engine.scoreBatch(small);
        result.check(sameBits(engine.logits(), expected),
                     "engine logits for a probe batch are bitwise-equal "
                     "to Dlrm::forward");
    }

    if (options.trace) {
        // Untraced and traced overload replays, in the order untraced,
        // traced, untraced after a warm-up replay, so warm-up and drift
        // cancel in the overhead ratio.
        spans().disable();
        engine.replay(s.phase_b, config);
        const Capacity plain =
            measureCapacity(engine, s.phase_b, config, 0.5);
        spans().enable();
        const Capacity traced =
            measureCapacity(engine, s.phase_b, config, 1.0);
        spans().disable();
        const Capacity plain2 =
            measureCapacity(engine, s.phase_b, config, 0.5);
        spans().enable();
        const double small_s = timeScore(engine, small, "serve.score_small");
        const double large_s = timeScore(engine, large, "serve.score_large");
        const obs::PoolSnapshot before = obs::snapshotThreadPool();
        serve::ServeReport a;
        {
            Scoped span("serve.replay_open_loop");
            a = engine.replay(s.phase_a, config);
        }
        const obs::PoolSnapshot pool =
            obs::poolDelta(before, obs::snapshotThreadPool());
        spans().disable();
        result.attempted = a.offered;
        const double batches = static_cast<double>(a.batches);
        addCommonLayerMetrics(result, {m}, false,
                              2.0 * traced.qps / (plain.qps + plain2.qps),
                              pool, batches);
        const SpanRecorder& rec = spans();
        result.addExtra("serve.engine_init_s",
                        rec.mean("serve.engine_init"), "s");
        result.addExtra("serve.loadgen_ms",
                        1e3 * rec.total("serve.loadgen") /
                            (static_cast<double>(kSetupRepeats) *
                             static_cast<double>(kPhaseAQueries +
                                                 kPhaseBQueries) /
                             1000.0),
                        "ms");
        result.addExtra("serve.score_small_ms", 1e3 * small_s, "ms");
        result.addExtra("serve.score_large_ms", 1e3 * large_s, "ms");
        const double service_s = a.busy_s / batches;
        result.addExtra("serve.service_ms", 1e3 * service_s, "ms");
        result.addExtra("serve.batch_items", a.mean_batch_items, "count");
        result.addExtra("serve.wait_ms",
                        1e3 * (a.latency.p50 - service_s), "ms");
        result.addExtra("serve.utilization", a.busy_s / a.makespan_s,
                        "ratio");
        result.addExtra("serve.evicted", static_cast<double>(a.evicted),
                        "count");
        result.addExtra("util.pool.jobs_per_batch",
                        static_cast<double>(pool.jobs) / batches, "count");
        return result;
    }

    // Phase A: open loop at the fixed rate. Phase B: overload for the
    // rest of the run's time.
    const double start = nowSeconds();
    const serve::ServeReport a = engine.replay(s.phase_a, config);
    const Capacity b = measureCapacity(
        engine, s.phase_b, config,
        std::max(options.seconds - (nowSeconds() - start), 1.0));

    std::cout << "phase A accounting: offered " << a.offered << ", served "
              << a.served << ", evicted " << a.evicted << "\n"
              << "phase B accounting: offered " << b.offered << ", served "
              << b.served << ", evicted " << b.evicted << " over "
              << b.replays << " replays\n"
              << "latencies are measured on the replay's virtual clock "
                 "from each query's scheduled arrival, so the load "
                 "generator is never late\n"
              << "tail_ms is the p99 of " << a.latency.count
              << " completed phase-A queries\n";
    result.check(a.served + a.evicted == a.offered,
                 "phase A: served + evicted == offered");
    result.check(b.served + b.evicted == b.offered,
                 "phase B: served + evicted == offered");
    result.check(a.latency.count >= 1000,
                 "phase A completes at least 1,000 queries");
    result.check(std::isfinite(a.latency.p50) &&
                     std::isfinite(a.latency.p99),
                 "phase A latencies are finite");
    const std::size_t failed = static_cast<std::size_t>(
        std::lround(a.sla_violation_rate * static_cast<double>(a.offered)));
    result.attempted = a.offered;
    result.failed = failed;

    // The slowest replay sets the reported capacity (see NOTES.md).
    result.add("throughput_per_s", b.slowest_qps, "1/s");
    result.add("setup_s", median(setup_s), "s");
    result.add("peak_rss_mb", peakRssMb(), "MB");
    result.addExtra("p50_ms", 1e3 * a.latency.p50, "ms");
    result.addExtra("tail_ms", 1e3 * a.latency.p99, "ms");
    result.addExtra("tail_samples", static_cast<double>(a.latency.count),
                    "count");
    result.addExtra("failed_share", a.sla_violation_rate, "fraction");
    result.addExtra("mean_throughput_per_s", b.qps, "1/s");
    return result;
}

} // namespace perfbench
