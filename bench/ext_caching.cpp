/**
 * @file
 * Extension: hot-row caching for embedding lookups ("The
 * characterization results ... open up new optimization opportunities
 * as well, such as caching [58]", Section III-A). Zipf-skewed lookups
 * mean a small cache absorbs a large share of the traffic.
 *
 * Two halves:
 *  1. Analytic: the trainer-side remote-pull cache on the M3/Big Basin
 *     remote-PS setup (cost::IterationModel::remoteCacheHitFraction).
 *  2. Executable: nn::CachedBackend on a trainable model — the
 *     placement allocator packs a hot-tier budget per table, the
 *     backend measures actual hit rates on the synthetic Zipf trace,
 *     and the two are printed side by side. A timing loop checks that
 *     hot-hit lookups cost no more than the flat DramBackend (the
 *     backends share one gather kernel; the cache only classifies).
 *
 * Usage: ext_caching [--json PATH] [--trace out.json]
 * Emits BENCH_ext_caching.json for the CI gate.
 */
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "cost/iteration_model.h"
#include "data/dataset.h"
#include "hw/platform.h"
#include "model/dlrm.h"
#include "nn/embedding_backend.h"
#include "placement/placement.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

using namespace recsim;
using placement::EmbeddingPlacement;

namespace {

constexpr std::size_t kBatch = 512;
constexpr std::size_t kWarmupBatches = 4;
constexpr std::size_t kMeasureBatches = 16;
constexpr std::size_t kTimedBatches = 30;

/** One hot-tier budget sweep point, predicted vs measured. */
struct SweepPoint
{
    double fraction = 0.0;
    double budget_bytes = 0.0;
    double plan_hot_bytes = 0.0;
    double predicted = 0.0;
    double measured = 0.0;
    double drift = 0.0;
};

/** Aggregate hit rate over every table's backend counters. */
double
aggregateHitRate(model::Dlrm& model)
{
    uint64_t hot = 0, total = 0;
    for (auto& table : model.tables()) {
        const nn::EmbeddingTierStats s = table.backend().stats();
        hot += s.hot_lookups;
        total += s.lookups();
    }
    return total > 0
        ? static_cast<double>(hot) / static_cast<double>(total) : 0.0;
}

/** Seconds per forward batch over @p n batches of the dataset. */
double
timeForward(model::Dlrm& model, const data::SyntheticCtrDataset& data,
            std::size_t n, tensor::Tensor& logits)
{
    // Untimed pass to touch tables and size scratch.
    model.forward(data.epochBatch(0, kBatch), logits);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t b = 0; b < n; ++b)
        model.forward(data.epochBatch(b * kBatch, kBatch), logits);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() /
        static_cast<double>(n);
}

} // namespace

int
main(int argc, char** argv)
{
    bench::TraceSession trace_session(argc, argv);
    std::string json_path = "BENCH_ext_caching.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
    }

    bench::banner("Extension: hot-row caching",
                  "Tiered embedding storage (paper Sec III-A "
                  "opportunity)",
                  "Analytic remote-pull cache on M3/Big Basin, then the "
                  "executable CachedBackend:\npredicted (placement + "
                  "Zipf top-mass) vs measured hit rate per hot-tier "
                  "budget.");

    // ---- 1. Analytic: trainer-side cache for remote placement -------
    const auto m3 = model::DlrmConfig::m3Prod();
    util::TextTable table;
    table.header({"cache size", "hit fraction", "throughput",
                  "vs no cache", "bottleneck"});
    double baseline = 0.0;
    for (double gb : {0.0, 0.25, 1.0, 4.0, 16.0, 64.0}) {
        auto sys = cost::SystemConfig::bigBasinSetup(
            EmbeddingPlacement::RemotePs, 800, 8);
        sys.hogwild_threads = 4;
        sys.remote_cache_bytes = gb * 1e9;
        cost::IterationModel im(m3, sys);
        const auto est = im.estimate();
        if (gb == 0.0)
            baseline = est.throughput;
        table.row({
            gb == 0.0 ? "none" : util::fixed(gb, 2) + " GB",
            bench::pct(im.remoteCacheHitFraction()),
            bench::kexps(est.throughput),
            bench::ratio(est.throughput / baseline),
            est.bottleneck,
        });
    }
    std::cout << table.render() << "\n";

    // ---- 2. Executable: CachedBackend hit-rate validation -----------
    // A trainable shape with enough lookups per batch for stable
    // rates: 4 tables x 60k rows, 8 lookups per table per example.
    const auto m = model::DlrmConfig::testSuite(32, 4, 60000, 64, 2,
                                                8.0, 0);
    data::DatasetConfig data_cfg;
    data_cfg.num_dense = m.num_dense;
    data_cfg.sparse = m.sparse;
    data_cfg.seed = 11;
    data::SyntheticCtrDataset dataset(data_cfg);
    dataset.materialize((kWarmupBatches + kMeasureBatches + 4) * kBatch);

    model::Dlrm model(m, 3);
    tensor::Tensor logits;

    placement::PlacementOptions popts;
    const double planner_bytes = popts.memory_overhead_factor *
        m.embeddingBytes();
    const hw::Platform host = hw::Platform::dualSocketCpu();

    std::cout << "Executable CachedBackend ("
              << m.sparse.size() << " tables x "
              << m.sparse[0].hash_size << " rows, Zipf "
              << util::fixed(m.sparse[0].zipf_exponent, 2)
              << ", steady state after " << kWarmupBatches
              << " warmup batches):\n";
    util::TextTable exec;
    exec.header({"hot tier", "of tables", "predicted hit",
                 "measured hit", "drift"});
    std::vector<SweepPoint> sweep;
    double max_drift = 0.0;
    for (double fraction : {0.02, 0.05, 0.1, 0.3, 0.6}) {
        SweepPoint pt;
        pt.fraction = fraction;
        pt.budget_bytes = fraction * planner_bytes;

        // The analytic side: placement packs the budget per table.
        popts.hot_tier_bytes = pt.budget_bytes;
        const placement::PlacementPlan plan = placement::planPlacement(
            EmbeddingPlacement::HostMemory, m, host, popts);
        pt.plan_hot_bytes = plan.hot_tier_bytes;
        pt.predicted = plan.hot_hit_fraction;

        // The executable side: the same split, measured on the trace.
        model.installCachedEmbeddingBackends(pt.budget_bytes, 1);
        for (std::size_t b = 0; b < kWarmupBatches; ++b)
            model.forward(dataset.epochBatch(b * kBatch, kBatch),
                          logits);
        for (auto& t : model.tables())
            t.backend().resetStats();
        for (std::size_t b = 0; b < kMeasureBatches; ++b)
            model.forward(dataset.epochBatch(
                              (kWarmupBatches + b) * kBatch, kBatch),
                          logits);
        pt.measured = aggregateHitRate(model);
        pt.drift = std::abs(pt.predicted - pt.measured);
        max_drift = std::max(max_drift, pt.drift);

        exec.row({util::bytesToString(pt.budget_bytes),
                  bench::pct(fraction), bench::pct(pt.predicted),
                  bench::pct(pt.measured), util::fixed(pt.drift, 3)});
        sweep.push_back(pt);
    }
    std::cout << exec.render() << "\n";

    // ---- 3. Hot-hit lookups must cost no more than flat DRAM --------
    // Whole tables pinned: every lookup is a hot hit, and the gather
    // kernel is byte-identical to DramBackend's — the only extra work
    // is the per-chunk bitmap classification.
    model.installDramEmbeddingBackends();
    const double dram_s = timeForward(model, dataset, kTimedBatches,
                                      logits);
    for (std::size_t f = 0; f < model.tables().size(); ++f) {
        nn::CachedBackendConfig cfg;
        cfg.hot_rows = m.sparse[f].hash_size;  // pin the whole table
        model.setEmbeddingBackend(f, nn::makeCachedBackend(cfg));
    }
    const double cached_s = timeForward(model, dataset, kTimedBatches,
                                        logits);
    const double timing_ratio = dram_s > 0.0 ? cached_s / dram_s : 0.0;
    std::cout << "hot-hit lookup cost: DramBackend "
              << util::fixed(dram_s * 1e6, 1)
              << " us/batch, CachedBackend (all hot) "
              << util::fixed(cached_s * 1e6, 1) << " us/batch, ratio "
              << util::fixed(timing_ratio, 3) << "\n\n";

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    out << "{\n";
    bench::writeHostJson(out, util::configuredThreads());
    out << "  \"config\": \"" << m.name << "\",\n"
        << "  \"batch_size\": " << kBatch << ",\n"
        << "  \"measure_batches\": " << kMeasureBatches << ",\n"
        << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const SweepPoint& pt = sweep[i];
        out << "    {\"fraction\": " << pt.fraction
            << ", \"budget_bytes\": " << pt.budget_bytes
            << ", \"plan_hot_bytes\": " << pt.plan_hot_bytes
            << ", \"predicted_hit_rate\": " << pt.predicted
            << ", \"measured_hit_rate\": " << pt.measured
            << ", \"drift\": " << pt.drift << "}"
            << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"max_drift\": " << max_drift << ",\n"
        << "  \"timing\": {\"dram_seconds_per_batch\": " << dram_s
        << ", \"cached_hot_seconds_per_batch\": " << cached_s
        << ", \"cached_over_dram\": " << timing_ratio << "}\n}\n";
    std::cout << "wrote " << json_path << "\n\n";

    std::cout <<
        "Takeaway: with production-like skew a small hot tier absorbs "
        "most lookups; the\nexecutable CachedBackend's measured hit "
        "rates track the placement allocator's\nZipf-top-mass "
        "prediction within a few points. Hot hits gather through the "
        "same\nkernel as flat DRAM (results are bitwise-identical); "
        "the modest overhead is the\ntier accounting itself, bounded "
        "by the CI gate on the ratio above.\n";
    return 0;
}
