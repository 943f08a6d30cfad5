/**
 * @file
 * Tests for the pluggable embedding storage backends
 * (nn/embedding_backend.h) and the tier plumbing built on top of them:
 *
 *  - the backend contract itself — CachedBackend results bitwise-equal
 *    to DramBackend across the trainable model zoo, optimizers and
 *    thread counts, gradcheck included;
 *  - the zero-allocation steady state of EmbeddingBag::backward()'s
 *    flat slot map (verified with a counting operator new);
 *  - cost::gatherEfficiency / tieredGatherBandwidth limits and the
 *    agreement between the analytic Zipf top-mass hit rate and what
 *    CachedBackend actually measures on a Zipf trace;
 *  - placement::allocateHotTier budget accounting and the tier
 *    annotations carried through StepGraph fusion and the cost model.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <numeric>
#include <vector>

#include "cost/cache_model.h"
#include "cost/iteration_model.h"
#include "data/dataset.h"
#include "graph/step_graph.h"
#include "hw/platform.h"
#include "model/dlrm.h"
#include "nn/embedding_backend.h"
#include "nn/embedding_bag.h"
#include "nn/optimizer.h"
#include "placement/placement.h"
#include "tensor/tensor.h"
#include "util/random.h"
#include "util/thread_pool.h"

#include "reference_walk.h"

// ---- Counting allocator -------------------------------------------------
// Global operator new replacement so the zero-allocation contract of
// EmbeddingBag::backward() is testable: the counter must not move
// across a steady-state backward call.

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
} // namespace

// GCC pairs the replaced operator new with free() lexically and warns;
// the pairing is correct here because the replacement is malloc-backed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void*
operator new(std::size_t n)
{
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void*
operator new(std::size_t n, std::align_val_t al)
{
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a =
        std::max(static_cast<std::size_t>(al), sizeof(void*));
    void* p = nullptr;
    if (posix_memalign(&p, a, n ? n : 1) == 0)
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept
{
    return ::operator new(n, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace recsim {
namespace {

using nn::CachedBackend;
using nn::CachedBackendConfig;
using nn::EmbeddingBag;
using nn::EmbeddingTierStats;
using nn::SparseBatch;
using nn::SparseGrad;
using tensor::Tensor;

/** Restore the global pool size when a test returns. */
struct PoolSizeGuard
{
    ~PoolSizeGuard()
    {
        util::globalThreadPool().resize(util::configuredThreads());
    }
};

/** Build a CSR batch from per-example index lists. */
SparseBatch
makeBatch(const std::vector<std::vector<uint64_t>>& examples)
{
    SparseBatch batch;
    batch.offsets.push_back(0);
    for (const auto& ex : examples) {
        for (uint64_t id : ex)
            batch.indices.push_back(id);
        batch.offsets.push_back(batch.indices.size());
    }
    return batch;
}

/** A deterministic Zipf-distributed batch (ids already < hash size). */
SparseBatch
zipfBatch(const util::ZipfSampler& zipf, util::Rng& rng,
          std::size_t examples, std::size_t lookups_per_example)
{
    SparseBatch batch;
    batch.offsets.push_back(0);
    for (std::size_t e = 0; e < examples; ++e) {
        for (std::size_t k = 0; k < lookups_per_example; ++k)
            batch.indices.push_back(zipf(rng));
        batch.offsets.push_back(batch.indices.size());
    }
    return batch;
}

/** Central-difference gradient of scalar-valued f wrt x[i]. */
double
numericalGrad(Tensor& x, std::size_t i,
              const std::function<double()>& f, float eps = 1e-3f)
{
    const float saved = x.data()[i];
    x.data()[i] = saved + eps;
    const double plus = f();
    x.data()[i] = saved - eps;
    const double minus = f();
    x.data()[i] = saved;
    return (plus - minus) / (2.0 * eps);
}

// ---- Backend bitwise equivalence ---------------------------------------

/** Everything a short training run produces, for bitwise comparison. */
struct RunFingerprint
{
    std::vector<double> losses;
    std::vector<float> probe_logits;
    std::vector<float> table_params;
};

/**
 * Train @p steps optimizer steps on a fresh model + dataset (fixed
 * seeds) and fingerprint the result. The only degree of freedom is the
 * installed embedding backend — every fingerprint byte must match
 * between the Dram and Cached runs.
 */
RunFingerprint
trainRun(const model::DlrmConfig& cfg, bool cached, bool adagrad,
         std::size_t steps, std::size_t batch)
{
    data::DatasetConfig dc;
    dc.num_dense = cfg.num_dense;
    dc.sparse = cfg.sparse;
    dc.seed = 5;
    data::SyntheticCtrDataset data(dc);
    data.materialize((steps + 1) * batch);

    model::Dlrm model(cfg, 7);
    if (cached) {
        // A budget that forces a mixed hot/cold split (neither empty
        // nor whole-table) with mid-run refreshes: the interesting
        // regime for equivalence.
        model.installCachedEmbeddingBackends(
            0.3 * 1.25 * cfg.embeddingBytes(), 2);
    }

    nn::Sgd sgd(0.05f);
    nn::Adagrad ada(0.05f);
    RunFingerprint fp;
    for (std::size_t s = 0; s < steps; ++s) {
        fp.losses.push_back(test::referenceForwardBackward(
            model, data.epochBatch(s * batch, batch)));
        if (adagrad)
            model.step(ada);
        else
            model.step(sgd);
    }

    Tensor logits;
    model.forward(data.epochBatch(steps * batch, batch), logits);
    fp.probe_logits.assign(logits.data(),
                           logits.data() + logits.size());
    for (const auto& t : model.tables())
        fp.table_params.insert(fp.table_params.end(), t.table.data(),
                               t.table.data() + t.table.size());
    return fp;
}

void
expectBitwiseEqual(const RunFingerprint& a, const RunFingerprint& b,
                   const std::string& what)
{
    ASSERT_EQ(a.losses.size(), b.losses.size()) << what;
    for (std::size_t i = 0; i < a.losses.size(); ++i)
        EXPECT_EQ(a.losses[i], b.losses[i])
            << what << " loss diverged at step " << i;
    ASSERT_EQ(a.probe_logits.size(), b.probe_logits.size()) << what;
    EXPECT_EQ(0, std::memcmp(a.probe_logits.data(),
                             b.probe_logits.data(),
                             a.probe_logits.size() * sizeof(float)))
        << what << " probe logits differ";
    ASSERT_EQ(a.table_params.size(), b.table_params.size()) << what;
    EXPECT_EQ(0, std::memcmp(a.table_params.data(),
                             b.table_params.data(),
                             a.table_params.size() * sizeof(float)))
        << what << " table parameters differ";
}

/**
 * Edge inputs for the gather and update kernels' row prefetch: a
 * 1-row table; rows of 4, 20 and 48 floats, which are not whole cache
 * lines; and lists long enough (40 lookups of 48 or 60 of 20 floats)
 * that a 64-example batch splits into two forward chunks, so the
 * look-ahead runs into the end of a chunk and of the batch. The 1-row
 * table's gradient has fewer rows than the look-ahead distance.
 */
model::DlrmConfig
prefetchEdgeConfig()
{
    auto cfg = model::DlrmConfig::tinyReplica(4, 8, 600, 48);
    cfg.name = "prefetch_edges";
    cfg.sparse[0].hash_size = 1;
    cfg.sparse[1].dim_override = 20;
    cfg.sparse[1].mean_length = 60.0;
    cfg.sparse[1].truncation = 96;
    cfg.sparse[2].dim_override = 4;
    cfg.sparse[2].mean_length = 1.0;
    cfg.sparse[3].hash_size = 5000;
    cfg.sparse[3].mean_length = 40.0;
    cfg.sparse[3].truncation = 64;
    return cfg;
}

TEST(BackendEquivalence, ModelZooBitwiseAcrossThreadsAndOptimizers)
{
    PoolSizeGuard guard;
    const std::vector<model::DlrmConfig> zoo = {
        model::DlrmConfig::testSuite(16, 4, 5000, 32, 2, 4.0, 0),
        model::DlrmConfig::tinyReplica(4, 8, 600, 8),
        prefetchEdgeConfig(),
    };
    for (const auto& cfg : zoo) {
        for (const bool adagrad : {false, true}) {
            for (const std::size_t threads : {1u, 2u, 8u}) {
                util::globalThreadPool().resize(threads);
                const auto dram =
                    trainRun(cfg, false, adagrad, 4, 64);
                const auto cached =
                    trainRun(cfg, true, adagrad, 4, 64);
                expectBitwiseEqual(
                    dram, cached,
                    cfg.name + (adagrad ? "/adagrad" : "/sgd") +
                        "/threads=" + std::to_string(threads));
            }
        }
    }
}

TEST(BackendEquivalence, GradCheckThroughCachedBackend)
{
    util::Rng rng(11);
    EmbeddingBag bag(6, 3, rng, nn::Pooling::Mean);
    CachedBackendConfig cfg;
    cfg.hot_rows = 3;
    cfg.refresh_every = 1;
    bag.setBackend(nn::makeCachedBackend(cfg));
    const SparseBatch batch = makeBatch({{0, 2, 2}, {4}});

    auto loss = [&] {
        Tensor out;
        bag.forward(batch, out);
        double acc = 0.0;
        for (std::size_t i = 0; i < out.size(); ++i)
            acc += 0.5 * static_cast<double>(out.data()[i]) *
                out.data()[i];
        return acc;
    };

    Tensor out;
    bag.forward(batch, out);
    SparseGrad grad;
    bag.backward(batch, out, grad);  // d(0.5*sum(y^2))/dy = y

    for (std::size_t r = 0; r < grad.rows.size(); ++r) {
        for (std::size_t j = 0; j < bag.dim(); ++j) {
            const std::size_t flat =
                static_cast<std::size_t>(grad.rows[r]) * bag.dim() + j;
            EXPECT_NEAR(grad.values.at(r, j),
                        numericalGrad(bag.table, flat, loss), 2e-2);
        }
    }
}

TEST(BackendEquivalence, TierStatsBitIdenticalAcrossThreadCounts)
{
    PoolSizeGuard guard;
    bool have_ref = false;
    EmbeddingTierStats ref;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        util::globalThreadPool().resize(threads);
        util::Rng init_rng(3);
        EmbeddingBag bag(4096, 32, init_rng);
        CachedBackendConfig cfg;
        cfg.hot_rows = 256;
        cfg.refresh_every = 2;
        bag.setBackend(nn::makeCachedBackend(cfg));

        util::Rng data_rng(17);
        const util::ZipfSampler zipf(4096, 1.05);
        Tensor out;
        for (int b = 0; b < 8; ++b)
            bag.forward(zipfBatch(zipf, data_rng, 64, 6), out);

        const EmbeddingTierStats s = bag.backend().stats();
        EXPECT_EQ(s.lookups(), 64u * 6u * 8u);
        if (!have_ref) {
            ref = s;
            have_ref = true;
            continue;
        }
        EXPECT_EQ(ref.hot_lookups, s.hot_lookups)
            << "threads=" << threads;
        EXPECT_EQ(ref.cold_lookups, s.cold_lookups)
            << "threads=" << threads;
        EXPECT_EQ(ref.hot_read_bytes, s.hot_read_bytes);
        EXPECT_EQ(ref.cold_read_bytes, s.cold_read_bytes);
        EXPECT_EQ(ref.batches, s.batches);
    }
}

// ---- Zero-allocation backward ------------------------------------------

TEST(FlatSlotMap, SteadyStateBackwardAllocatesNothing)
{
    PoolSizeGuard guard;
    // One pool thread: parallelFor runs chunks inline through the
    // non-allocating ChunkFn, so every allocation the counter sees is
    // attributable to backward() itself.
    util::globalThreadPool().resize(1);

    util::Rng rng(3);
    EmbeddingBag bag(128, 16, rng);
    util::Rng data_rng(9);
    const util::ZipfSampler zipf(128, 1.05);
    const SparseBatch batch = zipfBatch(zipf, data_rng, 32, 8);

    Tensor out;
    bag.forward(batch, out);
    SparseGrad grad;
    bag.backward(batch, out, grad);  // sizes the scratch + grad
    bag.backward(batch, out, grad);  // steady state

    const std::uint64_t before =
        g_alloc_calls.load(std::memory_order_relaxed);
    bag.backward(batch, out, grad);
    const std::uint64_t after =
        g_alloc_calls.load(std::memory_order_relaxed);
    EXPECT_EQ(before, after)
        << "steady-state backward touched the allocator "
        << (after - before) << " time(s)";
}

// ---- CachedBackend hot-set mechanics -----------------------------------

TEST(CachedBackendHotSet, WholeTablePinServesEverythingHot)
{
    util::Rng rng(4);
    EmbeddingBag bag(32, 4, rng);
    CachedBackendConfig cfg;
    cfg.hot_rows = 100;  // > hash size: the whole table is pinned
    cfg.refresh_every = 4;
    bag.setBackend(nn::makeCachedBackend(cfg));

    // The pin installs at the end of the first batch (the cache
    // starts empty, so batch 1 takes compulsory misses like any
    // cache); from then on every lookup hits.
    Tensor out;
    bag.forward(makeBatch({{0, 5, 9}, {31}}), out);
    bag.backend().resetStats();
    // Rows never seen before must still hit.
    bag.forward(makeBatch({{17, 17}, {2, 30}}), out);
    bag.forward(makeBatch({{0, 11}, {23, 31}}), out);

    const auto& backend =
        static_cast<const CachedBackend&>(bag.backend());
    const EmbeddingTierStats s = backend.stats();
    EXPECT_EQ(s.cold_lookups, 0u);
    EXPECT_EQ(s.hot_lookups, 8u);
    EXPECT_EQ(backend.hotSetSize(), 32u);
    EXPECT_TRUE(backend.isHot(0));
    EXPECT_TRUE(backend.isHot(31));
}

TEST(CachedBackendHotSet, TopKRebuildIsDeterministic)
{
    util::Rng rng(4);
    EmbeddingBag bag(8, 2, rng);
    CachedBackendConfig cfg;
    cfg.hot_rows = 2;
    cfg.refresh_every = 1;
    bag.setBackend(nn::makeCachedBackend(cfg));

    // Frequencies after one batch: row 3 -> 3, rows 1 and 5 -> 2
    // (tie), row 6 -> 1. Top-2 must be {3, 1}: higher count first,
    // lower row id on ties.
    Tensor out;
    bag.forward(makeBatch({{3, 3, 3, 5, 5}, {1, 1, 6}}), out);

    const auto& backend =
        static_cast<const CachedBackend&>(bag.backend());
    EXPECT_EQ(backend.refreshes(), 1u);
    EXPECT_EQ(backend.hotSetSize(), 2u);
    EXPECT_TRUE(backend.isHot(3));
    EXPECT_TRUE(backend.isHot(1));
    EXPECT_FALSE(backend.isHot(5));
    EXPECT_FALSE(backend.isHot(6));

    // The first batch classified against an empty hot set.
    EXPECT_EQ(backend.stats().hot_lookups, 0u);
    // The second batch classifies against {3, 1}.
    bag.forward(makeBatch({{3, 1, 5}, {6}}), out);
    EXPECT_EQ(backend.stats().hot_lookups, 2u);
    EXPECT_EQ(backend.stats().cold_lookups, 10u);
}

TEST(CachedBackendHotSet, RefreshCadenceFollowsConfig)
{
    util::Rng rng(4);
    EmbeddingBag bag(16, 2, rng);
    CachedBackendConfig cfg;
    cfg.hot_rows = 4;
    cfg.refresh_every = 3;
    bag.setBackend(nn::makeCachedBackend(cfg));

    const auto& backend =
        static_cast<const CachedBackend&>(bag.backend());
    Tensor out;
    const SparseBatch batch = makeBatch({{1, 2}, {3}});
    for (int b = 1; b <= 9; ++b) {
        bag.forward(batch, out);
        EXPECT_EQ(backend.refreshes(),
                  static_cast<uint64_t>(b / 3))
            << "after batch " << b;
    }
}

// ---- Analytic cache model (satellite: cost::gatherEfficiency) ----------

TEST(CacheModel, GatherEfficiencyCachedLimitIsExact)
{
    const double cache = 40e6;
    // Anything at or under the cache runs at exactly cached_eff.
    EXPECT_EQ(cost::gatherEfficiency(10e6, cache, 0.15, 0.9), 0.9);
    EXPECT_EQ(cost::gatherEfficiency(cache, cache, 0.15, 0.9), 0.9);
}

TEST(CacheModel, GatherEfficiencyMonotoneInResidentBytes)
{
    const double cache = 27.5e6;
    const double random_eff = 0.15;
    const double cached_eff = 0.9;
    double prev = cached_eff + 1e-12;
    for (double resident = 1e6; resident < 1e13; resident *= 1.7) {
        const double eff = cost::gatherEfficiency(resident, cache,
                                                  random_eff,
                                                  cached_eff);
        EXPECT_LE(eff, prev + 1e-15) << "resident=" << resident;
        EXPECT_GE(eff, random_eff - 1e-15) << "resident=" << resident;
        EXPECT_LE(eff, cached_eff + 1e-15) << "resident=" << resident;
        prev = eff;
    }
    // Terabyte-scale working sets are pure random access.
    EXPECT_NEAR(cost::gatherEfficiency(1e14, cache, 0.15, 0.9), 0.15,
                1e-3);
}

TEST(CacheModel, CacheTrafficHitFractionBounds)
{
    const double cache = 27.5e6;
    EXPECT_EQ(cost::cacheTrafficHitFraction(cache / 2, cache), 1.0);
    EXPECT_EQ(cost::cacheTrafficHitFraction(cache, cache), 1.0);
    double prev = 1.0;
    for (double resident = cache; resident < 1e13; resident *= 2.0) {
        const double h =
            cost::cacheTrafficHitFraction(resident, cache);
        EXPECT_GE(h, 0.0);
        EXPECT_LE(h, 1.0);
        EXPECT_LE(h, prev + 1e-15);
        prev = h;
    }
}

TEST(CacheModel, TieredBandwidthSingleTierFastPathIsBitExact)
{
    const double cold_bw = 76.8e9;
    const double resident = 5e9;
    const double cache = 27.5e6;
    const double random_eff = 0.15;
    // hot_hit == 0 must reproduce the single-tier expression to the
    // last bit — that is what keeps every pre-tier config unchanged.
    EXPECT_EQ(cost::tieredGatherBandwidth(cold_bw, 900e9, 0.0, resident,
                                          cache, random_eff),
              cold_bw * cost::gatherEfficiency(resident, cache,
                                               random_eff));
}

TEST(CacheModel, TieredBandwidthLimitsAndOrdering)
{
    const double cold_bw = 76.8e9;
    const double hot_bw = 900e9;
    const double resident = 5e9;
    const double cache = 27.5e6;
    const double random_eff = 0.15;
    const double cached_eff = 0.9;

    // All-hot traffic runs at the managed-tier streaming rate.
    EXPECT_NEAR(cost::tieredGatherBandwidth(cold_bw, hot_bw, 1.0,
                                            resident, cache, random_eff,
                                            cached_eff),
                hot_bw * cached_eff, hot_bw * 1e-12);

    // More hot traffic never slows the gather down (hot rate above
    // cold rate here), and every blend sits between the two tiers.
    const double lo = cold_bw *
        cost::gatherEfficiency(resident, cache, random_eff, cached_eff);
    const double hi = hot_bw * cached_eff;
    double prev = lo;
    for (double h = 0.0; h <= 1.0; h += 0.1) {
        const double bw = cost::tieredGatherBandwidth(
            cold_bw, hot_bw, h, resident, cache, random_eff,
            cached_eff);
        EXPECT_GE(bw, prev - 1e-3) << "hot_hit=" << h;
        EXPECT_GE(bw, lo - 1e-3);
        EXPECT_LE(bw, hi + 1e-3);
        prev = bw;
    }
}

TEST(CacheModel, CachedBackendHitRateMatchesZipfTopMass)
{
    PoolSizeGuard guard;
    util::globalThreadPool().resize(3);

    constexpr uint64_t kHash = 4096;
    constexpr std::size_t kHotRows = 320;
    constexpr double kExponent = 1.05;

    util::Rng init_rng(6);
    EmbeddingBag bag(kHash, 8, init_rng);
    CachedBackendConfig cfg;
    cfg.hot_rows = kHotRows;
    cfg.refresh_every = 1;
    bag.setBackend(nn::makeCachedBackend(cfg));

    // Fold-free trace: the sampler draws hashed ids directly, so the
    // analytic prediction is exactly the Zipf top-K traffic mass.
    util::Rng data_rng(23);
    const util::ZipfSampler zipf(kHash, kExponent);
    Tensor out;
    for (int b = 0; b < 12; ++b)  // learn the head
        bag.forward(zipfBatch(zipf, data_rng, 256, 4), out);
    bag.backend().resetStats();
    for (int b = 0; b < 16; ++b)  // steady-state measurement
        bag.forward(zipfBatch(zipf, data_rng, 256, 4), out);

    const double measured = bag.backend().stats().hitRate();
    const double predicted =
        util::zipfTopMass(kHash, kExponent, kHotRows);
    EXPECT_NEAR(measured, predicted, 0.05)
        << "measured=" << measured << " predicted=" << predicted;
}

// ---- Placement hot-tier allocation -------------------------------------

TEST(PlacementHotTier, BudgetRespectedAndHitMonotone)
{
    const auto cfg =
        model::DlrmConfig::testSuite(16, 6, 20000, 32, 2, 6.0, 0);
    const hw::Platform host = hw::Platform::dualSocketCpu();
    placement::PlacementOptions opts;
    const double full =
        opts.memory_overhead_factor * cfg.embeddingBytes();

    for (const double frac : {0.0, 0.05, 0.2, 0.5, 1.0}) {
        opts.hot_tier_bytes = frac * full;
        const auto plan = placement::planPlacement(
            placement::EmbeddingPlacement::HostMemory, cfg, host, opts);
        ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;

        const double allocated =
            std::accumulate(plan.table_hot_bytes.begin(),
                            plan.table_hot_bytes.end(), 0.0);
        EXPECT_NEAR(allocated, plan.hot_tier_bytes,
                    1e-6 * (1.0 + allocated));
        EXPECT_LE(plan.hot_tier_bytes,
                  opts.hot_tier_bytes * (1.0 + 1e-9) + 1.0);
        for (const double h : plan.table_hot_hit_fraction) {
            EXPECT_GE(h, 0.0);
            EXPECT_LE(h, 1.0 + 1e-12);
        }

        if (frac == 0.0) {
            EXPECT_EQ(plan.hot_tier_bytes, 0.0);
            EXPECT_EQ(plan.hot_hit_fraction, 0.0);
        }
        if (frac == 1.0) {
            // The budget covers every table with overhead: all hot.
            EXPECT_NEAR(plan.hot_hit_fraction, 1.0, 1e-9);
        }
    }
}

TEST(PlacementHotTier, HitMonotoneInBudgetForSingleTable)
{
    // On one table the whole-table packing cliff can't interleave
    // with the leftover-cache split, so more budget can only add hot
    // rows and the predicted hit fraction is monotone. (Across many
    // tables the greedy whole-table packing trades per-table caches
    // for fully-resident tables, which is deliberately not monotone.)
    const auto cfg =
        model::DlrmConfig::testSuite(16, 1, 40000, 32, 2, 6.0, 0);
    const hw::Platform host = hw::Platform::dualSocketCpu();
    placement::PlacementOptions opts;
    const double full =
        opts.memory_overhead_factor * cfg.embeddingBytes();

    double prev_hit = -1.0;
    for (int i = 0; i <= 10; ++i) {
        const double frac = static_cast<double>(i) / 10.0;
        opts.hot_tier_bytes = frac * full;
        const auto plan = placement::planPlacement(
            placement::EmbeddingPlacement::HostMemory, cfg, host, opts);
        ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
        EXPECT_GE(plan.hot_hit_fraction, prev_hit - 1e-12)
            << "hit fraction regressed at budget fraction " << frac;
        prev_hit = plan.hot_hit_fraction;
    }
    EXPECT_NEAR(prev_hit, 1.0, 1e-9);
}

TEST(PlacementHotTier, GraphAnnotationsSurviveFusePass)
{
    const auto cfg =
        model::DlrmConfig::testSuite(16, 4, 30000, 32, 2, 6.0, 0);
    const hw::Platform host = hw::Platform::dualSocketCpu();
    placement::PlacementOptions opts;
    opts.hot_tier_bytes =
        0.3 * opts.memory_overhead_factor * cfg.embeddingBytes();
    const auto plan = placement::planPlacement(
        placement::EmbeddingPlacement::HostMemory, cfg, host, opts);
    ASSERT_TRUE(plan.feasible);
    ASSERT_GT(plan.hot_tier_bytes, 0.0);

    graph::StepGraph g = graph::buildModelStepGraph(cfg);
    placement::bindStepGraph(g, plan, opts.num_sparse_ps);

    std::size_t annotated = 0;
    for (const auto& node : g.nodes)
        if (node.hot_tier_bytes > 0.0) {
            ++annotated;
            EXPECT_GT(node.hot_hit_fraction, 0.0);
            EXPECT_LE(node.hot_hit_fraction, 1.0 + 1e-12);
        }
    EXPECT_GT(annotated, 0u);

    const graph::WorkSummary before = graph::summarize(g);
    EXPECT_NEAR(before.emb_hot_tier_bytes, plan.hot_tier_bytes,
                1e-6 * plan.hot_tier_bytes);
    EXPECT_GT(before.emb_hot_hit_fraction, 0.0);
    EXPECT_LE(before.emb_hot_hit_fraction, 1.0 + 1e-12);

    graph::fusePass(g);
    const graph::WorkSummary after = graph::summarize(g);
    EXPECT_NEAR(after.emb_hot_tier_bytes, before.emb_hot_tier_bytes,
                1e-6 * before.emb_hot_tier_bytes);
    EXPECT_NEAR(after.emb_hot_hit_fraction,
                before.emb_hot_hit_fraction, 1e-9);
}

// ---- Cost-model tier threading -----------------------------------------

TEST(CostTierThreading, HotTierExportsHitFractionAndHelpsThroughput)
{
    const auto m =
        model::DlrmConfig::testSuite(64, 8, 2000000, 128, 3, 12.0);

    auto base_sys = cost::SystemConfig::bigBasinSetup(
        placement::EmbeddingPlacement::HostMemory, 512);
    const cost::IterationModel base(m, base_sys);
    EXPECT_EQ(base.hotTierHitFraction(), 0.0);

    auto hot_sys = base_sys;
    hot_sys.emb_hot_tier_bytes = 0.25 * 1.25 * m.embeddingBytes();
    const cost::IterationModel hot(m, hot_sys);
    EXPECT_GT(hot.hotTierHitFraction(), 0.0);
    EXPECT_LE(hot.hotTierHitFraction(), 1.0 + 1e-12);

    // A hot tier can only speed embedding gathers up.
    EXPECT_GE(hot.estimate().throughput,
              base.estimate().throughput * (1.0 - 1e-12));
}

} // namespace
} // namespace recsim
