/**
 * @file
 * Tests for the ThreadPool parallel substrate and the determinism
 * contract the kernels rely on: parallelFor covers every index exactly
 * once with chunk boundaries that depend only on (begin, end, grain),
 * nested submits and concurrent callers complete without deadlock,
 * chunk exceptions propagate to the caller, and the tensor/embedding
 * kernels produce bit-identical results with a 1-thread and an 8-thread
 * pool.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nn/embedding_bag.h"
#include "scoped_env.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace recsim {
namespace {

using tensor::Tensor;
using util::ThreadPool;

/** Restores the global pool to its configured size on scope exit. */
struct PoolSizeGuard
{
    ~PoolSizeGuard()
    {
        util::globalThreadPool().resize(util::configuredThreads());
    }
};

// ---------------------------------------------------------------------
// Coverage: every index exactly once, for many (begin, end, grain)
// shapes, at several pool sizes.
// ---------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>
        shapes = {
            {0, 1000, 7},   {0, 1000, 1},    {0, 1, 16},
            {5, 1005, 64},  {0, 64, 64},     {0, 64, 1000},
            {3, 3, 8},      {10, 9, 8},  // empty and inverted ranges
            {0, 4096, 256},
        };
    for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        for (const auto& [begin, end, grain] : shapes) {
            const std::size_t n = end > begin ? end - begin : 0;
            std::vector<std::atomic<int>> hits(n);
            pool.parallelFor(begin, end, grain,
                             [&](std::size_t lo, std::size_t hi) {
                                 for (std::size_t i = lo; i < hi; ++i)
                                     hits[i - begin].fetch_add(1);
                             });
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << "threads=" << threads << " begin=" << begin
                    << " end=" << end << " grain=" << grain
                    << " index=" << begin + i;
        }
    }
}

TEST(ThreadPool, ChunkBoundariesDependOnlyOnRangeAndGrain)
{
    // Record the chunk set at each pool size; all sizes must agree, and
    // every boundary must sit at a multiple of grain from begin.
    const std::size_t begin = 3, end = 103, grain = 8;
    std::set<std::pair<std::size_t, std::size_t>> reference;
    for (const std::size_t threads : {1u, 2u, 5u, 8u}) {
        ThreadPool pool(threads);
        std::mutex mu;
        std::set<std::pair<std::size_t, std::size_t>> chunks;
        pool.parallelFor(begin, end, grain,
                         [&](std::size_t lo, std::size_t hi) {
                             std::lock_guard<std::mutex> lock(mu);
                             chunks.emplace(lo, hi);
                         });
        for (const auto& [lo, hi] : chunks) {
            EXPECT_EQ((lo - begin) % grain, 0u);
            EXPECT_LE(hi - lo, grain);
            EXPECT_TRUE(hi == end || hi - lo == grain);
        }
        if (reference.empty())
            reference = chunks;
        else
            EXPECT_EQ(chunks, reference) << "threads=" << threads;
    }
}

// ---------------------------------------------------------------------
// Nested submits and concurrent callers must complete (no deadlock).
// ---------------------------------------------------------------------

TEST(ThreadPool, NestedSubmitRunsInlineAndCompletes)
{
    ThreadPool pool(4);
    constexpr std::size_t kOuter = 16, kInner = 32;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    pool.parallelFor(0, kOuter, 1, [&](std::size_t o0, std::size_t o1) {
        for (std::size_t o = o0; o < o1; ++o) {
            // A parallelFor issued from inside a pool task must not
            // block on queue capacity or wait on its own worker.
            pool.parallelFor(0, kInner, 4,
                             [&](std::size_t i0, std::size_t i1) {
                                 for (std::size_t i = i0; i < i1; ++i)
                                     hits[o * kInner + i].fetch_add(1);
                             });
        }
    });
    for (const auto& h : hits)
        ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentCallersAllComplete)
{
    ThreadPool pool(4);
    constexpr std::size_t kCallers = 8, kRange = 2048;
    std::vector<std::size_t> sums(kCallers, 0);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            std::vector<std::atomic<std::size_t>> acc(1);
            pool.parallelFor(0, kRange, 64,
                             [&](std::size_t lo, std::size_t hi) {
                                 std::size_t s = 0;
                                 for (std::size_t i = lo; i < hi; ++i)
                                     s += i;
                                 acc[0].fetch_add(s);
                             });
            sums[c] = acc[0].load();
        });
    }
    for (auto& t : callers)
        t.join();
    const std::size_t expect = kRange * (kRange - 1) / 2;
    for (std::size_t c = 0; c < kCallers; ++c)
        EXPECT_EQ(sums[c], expect) << "caller " << c;
}

// ---------------------------------------------------------------------
// Exceptions propagate to the caller; the pool stays usable after.
// ---------------------------------------------------------------------

TEST(ThreadPool, ChunkExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 100, 4,
                         [&](std::size_t lo, std::size_t) {
                             if (lo >= 48)
                                 throw std::runtime_error("chunk boom");
                         }),
        std::runtime_error);

    // The failed job must not leave tasks queued or workers wedged.
    std::atomic<int> ran{0};
    pool.parallelFor(0, 64, 8,
                     [&](std::size_t lo, std::size_t hi) {
                         ran.fetch_add(static_cast<int>(hi - lo));
                     });
    EXPECT_EQ(ran.load(), 64);
}

// ---------------------------------------------------------------------
// Stats and resize.
// ---------------------------------------------------------------------

TEST(ThreadPool, StatsCountJobsAndTasks)
{
    ThreadPool pool(2);
    const auto before = pool.stats();
    pool.parallelFor(0, 100, 10, [](std::size_t, std::size_t) {});
    const auto after = pool.stats();
    EXPECT_EQ(after.jobs, before.jobs + 1);
    EXPECT_EQ(after.tasks, before.tasks + 10);  // ceil(100 / 10) chunks
}

TEST(ThreadPool, ResizeChangesConcurrencyAndKeepsWorking)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 1u);
    pool.resize(6);
    EXPECT_EQ(pool.numThreads(), 6u);
    std::vector<std::atomic<int>> hits(512);
    pool.parallelFor(0, hits.size(), 16,
                     [&](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i)
                             hits[i].fetch_add(1);
                     });
    for (const auto& h : hits)
        ASSERT_EQ(h.load(), 1);
    pool.resize(1);
    EXPECT_EQ(pool.numThreads(), 1u);
}

TEST(ThreadPool, GlobalPoolMatchesConfiguredThreads)
{
    EXPECT_GE(util::configuredThreads(), 1u);
    // The global pool may have been resized by an earlier test in this
    // binary; resize restores the configured size.
    util::globalThreadPool().resize(util::configuredThreads());
    EXPECT_EQ(util::globalThreadPool().numThreads(),
              util::configuredThreads());
}

TEST(ThreadPool, ConfiguredThreadsAcceptsWholeNumbersUpToTheBound)
{
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    const std::size_t bound = std::max(util::kMaxThreadsFloor, hw);
    for (const std::size_t n : {std::size_t(1), std::size_t(3), bound}) {
        ScopedEnv env("RECSIM_THREADS", std::to_string(n).c_str());
        EXPECT_EQ(util::configuredThreads(), n);
    }
    ScopedEnv env("RECSIM_THREADS", "");
    EXPECT_EQ(util::configuredThreads(), hw);
}

TEST(ThreadPoolDeathTest, ConfiguredThreadsRejectsAnythingElse)
{
    // Only the parse runs: no pool is built from these values, so none
    // of them starts a thread. Re-exec per death test, so exit() in the
    // child has no pool workers to wait on.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::size_t bound = std::max<std::size_t>(
        util::kMaxThreadsFloor, std::thread::hardware_concurrency());
    const std::string over = std::to_string(bound + 1);
    for (const char* value : {"4x", "0", "-2", "abc", "+4", " 4", "100000",
                              "99999999999999999999999", over.c_str()}) {
        EXPECT_EXIT(
            {
                setenv("RECSIM_THREADS", value, 1);
                util::configuredThreads();
            },
            ::testing::ExitedWithCode(1),
            "is not a whole number in \\[1, " + std::to_string(bound) +
                "\\]")
            << "RECSIM_THREADS='" << value << "'";
    }
}

// ---------------------------------------------------------------------
// Determinism contract: kernels are bitwise identical with a 1-thread
// and an 8-thread global pool.
// ---------------------------------------------------------------------

/** Runs fn with the global pool at 1 thread, then at 8; returns both
 *  results for bitwise comparison. */
template <typename F>
std::pair<Tensor, Tensor>
runSerialAndParallel(F&& fn)
{
    auto& pool = util::globalThreadPool();
    pool.resize(1);
    Tensor serial = fn();
    pool.resize(8);
    Tensor parallel = fn();
    return {std::move(serial), std::move(parallel)};
}

void
expectBitwiseEqual(const Tensor& a, const Tensor& b, const char* what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)),
              0)
        << what << ": parallel result differs bitwise from serial";
}

TEST(ThreadPoolDeterminism, MatmulBitwiseEqualAcrossThreadCounts)
{
    PoolSizeGuard guard;
    util::Rng rng(123);
    // Odd shapes so chunk and block edges are exercised.
    Tensor a(67, 129), b(129, 93);
    a.fillNormal(rng, 1.0f);
    b.fillNormal(rng, 1.0f);

    auto [s1, p1] = runSerialAndParallel([&] {
        Tensor out;
        tensor::matmul(a, b, out);
        return out;
    });
    expectBitwiseEqual(s1, p1, "matmul");

    Tensor at(129, 67);
    at.fillNormal(rng, 1.0f);
    auto [s2, p2] = runSerialAndParallel([&] {
        Tensor out;
        tensor::matmulTransA(at, b, out);
        return out;
    });
    expectBitwiseEqual(s2, p2, "matmulTransA");

    Tensor bt(93, 129);
    bt.fillNormal(rng, 1.0f);
    auto [s3, p3] = runSerialAndParallel([&] {
        Tensor out;
        tensor::matmulTransB(a, bt, out);
        return out;
    });
    expectBitwiseEqual(s3, p3, "matmulTransB");
}

TEST(ThreadPoolDeterminism, ElementwiseBitwiseEqualAcrossThreadCounts)
{
    PoolSizeGuard guard;
    util::Rng rng(124);
    Tensor x(333, 77);
    x.fillNormal(rng, 2.0f);

    auto [rs, rp] = runSerialAndParallel([&] {
        Tensor y = x;
        tensor::reluInPlace(y);
        return y;
    });
    expectBitwiseEqual(rs, rp, "relu");

    auto [ss, sp] = runSerialAndParallel([&] {
        Tensor y = x;
        tensor::sigmoidInPlace(y);
        return y;
    });
    expectBitwiseEqual(ss, sp, "sigmoid");

    auto [ms, mp] = runSerialAndParallel([&] {
        Tensor sums;
        tensor::sumRows(x, sums);
        return sums;
    });
    expectBitwiseEqual(ms, mp, "sumRows");
}

TEST(ThreadPoolDeterminism, EmbeddingBitwiseEqualAcrossThreadCounts)
{
    PoolSizeGuard guard;
    constexpr uint64_t kRows = 500;
    constexpr std::size_t kDim = 24;
    util::Rng init_rng(125);
    nn::EmbeddingBag bag(kRows, kDim, init_rng);

    // 64 examples with duplicate ids within and across bags plus one
    // empty bag, so the backward dedup path is exercised.
    nn::SparseBatch batch;
    util::Rng rng(126);
    batch.offsets.push_back(0);
    for (std::size_t ex = 0; ex < 64; ++ex) {
        if (ex != 17) {
            for (int k = 0; k < 8; ++k)
                batch.indices.push_back(rng.uniformInt(kRows * 2));
            batch.indices.push_back(batch.indices.back());  // duplicate
        }
        batch.offsets.push_back(batch.indices.size());
    }

    auto [fs, fp] = runSerialAndParallel([&] {
        Tensor out;
        bag.forward(batch, out);
        return out;
    });
    expectBitwiseEqual(fs, fp, "embedding.forward");

    Tensor dy(batch.batchSize(), kDim);
    dy.fillNormal(rng, 1.0f);
    auto& pool = util::globalThreadPool();
    pool.resize(1);
    nn::SparseGrad serial_grad;
    bag.backward(batch, dy, serial_grad);
    const auto serial_rows = serial_grad.rows;
    const Tensor serial_values = serial_grad.values;
    pool.resize(8);
    nn::SparseGrad parallel_grad;
    bag.backward(batch, dy, parallel_grad);
    EXPECT_EQ(parallel_grad.rows, serial_rows)
        << "embedding.backward row order changed with thread count";
    expectBitwiseEqual(serial_values, parallel_grad.values,
                       "embedding.backward values");
}

} // namespace
} // namespace recsim
