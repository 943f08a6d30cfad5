/**
 * @file
 * Unit tests for recsim::tensor: shapes, GEMM kernels against naive
 * references, elementwise ops and reductions.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "scoped_env.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace recsim::tensor {
namespace {

Tensor
randomMatrix(std::size_t r, std::size_t c, uint64_t seed)
{
    util::Rng rng(seed);
    Tensor t(r, c);
    t.fillNormal(rng, 1.0f);
    return t;
}

/** Naive O(mnk) reference GEMM. */
Tensor
naiveMatmul(const Tensor& a, const Tensor& b)
{
    Tensor out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc += a.at(i, k) * b.at(k, j);
            out.at(i, j) = acc;
        }
    return out;
}

TEST(Tensor, Rank1Construction)
{
    Tensor t(5);
    EXPECT_EQ(t.rank(), 1);
    EXPECT_EQ(t.size(), 5u);
    EXPECT_EQ(t.rows(), 5u);
    EXPECT_EQ(t.cols(), 1u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, Rank2Construction)
{
    Tensor t(3, 4);
    EXPECT_EQ(t.rank(), 2);
    EXPECT_EQ(t.size(), 12u);
    t.at(2, 3) = 7.0f;
    EXPECT_EQ(t.row(2)[3], 7.0f);
}

TEST(Tensor, InitializerList)
{
    Tensor t{1.0f, 2.0f, 3.0f};
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t[1], 2.0f);
}

TEST(Tensor, FillAndZero)
{
    Tensor t(2, 2);
    t.fill(3.0f);
    EXPECT_EQ(sumAll(t), 12.0);
    t.zero();
    EXPECT_EQ(sumAll(t), 0.0);
}

TEST(Tensor, FillNormalHasSpread)
{
    util::Rng rng(1);
    Tensor t(100, 100);
    t.fillNormal(rng, 2.0f);
    double sq = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i)
        sq += t.data()[i] * t.data()[i];
    EXPECT_NEAR(sq / static_cast<double>(t.size()), 4.0, 0.2);
}

TEST(Tensor, FillUniformRespectsBounds)
{
    util::Rng rng(2);
    Tensor t(1000);
    t.fillUniform(rng, -0.5f, 0.5f);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], -0.5f);
        EXPECT_LT(t[i], 0.5f);
    }
}

TEST(Tensor, Reshape)
{
    Tensor t(6);
    t.reshape(2, 3);
    EXPECT_EQ(t.rank(), 2);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 3u);
}

TEST(TensorDeath, ReshapeWrongSizePanics)
{
    Tensor t(6);
    EXPECT_DEATH(t.reshape(2, 4), "reshape");
}

TEST(Tensor, ShapeString)
{
    EXPECT_EQ(Tensor(4).shapeString(), "[4]");
    EXPECT_EQ(Tensor(2, 3).shapeString(), "[2 x 3]");
}

TEST(Tensor, SameShape)
{
    EXPECT_TRUE(Tensor(2, 3).sameShape(Tensor(2, 3)));
    EXPECT_FALSE(Tensor(2, 3).sameShape(Tensor(3, 2)));
    EXPECT_FALSE(Tensor(6).sameShape(Tensor(2, 3)));
}

class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MatmulShapes, MatchesNaive)
{
    const auto [m, k, n] = GetParam();
    const Tensor a = randomMatrix(m, k, 10 + m);
    const Tensor b = randomMatrix(k, n, 20 + n);
    Tensor out;
    matmul(a, b, out);
    EXPECT_LT(maxAbsDiff(out, naiveMatmul(a, b)), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(16, 16, 16),
                      std::make_tuple(7, 13, 5),
                      std::make_tuple(32, 64, 17)));

// Shapes that straddle the cache-block edges of the blocked kernel
// (kKc = 128 rows of B, kNc = 512 output columns) plus odd primes, so
// every partial-block path is exercised against the naive reference.
INSTANTIATE_TEST_SUITE_P(
    BlockEdges, MatmulShapes,
    ::testing::Values(std::make_tuple(33, 17, 29),
                      std::make_tuple(3, 127, 31),
                      std::make_tuple(5, 128, 33),
                      std::make_tuple(7, 129, 35),
                      std::make_tuple(2, 130, 513),
                      std::make_tuple(1, 257, 511),
                      std::make_tuple(65, 256, 1)));

TEST(Matmul, TransVariantsMatchNaiveAtBlockEdgeShapes)
{
    // [k, m] and [n, k] operands at sizes crossing the kKc boundary.
    const std::size_t m = 33, k = 130, n = 29;
    const Tensor a_t = randomMatrix(k, m, 90);  // transA operand
    const Tensor b = randomMatrix(k, n, 91);
    Tensor at(m, k);
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < m; ++j)
            at.at(j, i) = a_t.at(i, j);
    Tensor got;
    matmulTransA(a_t, b, got);
    EXPECT_LT(maxAbsDiff(got, naiveMatmul(at, b)), 1e-3);

    const Tensor a = randomMatrix(m, k, 92);
    const Tensor b_t = randomMatrix(n, k, 93);  // transB operand
    Tensor bt(k, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < k; ++j)
            bt.at(j, i) = b_t.at(i, j);
    matmulTransB(a, b_t, got);
    EXPECT_LT(maxAbsDiff(got, naiveMatmul(a, bt)), 1e-3);
}

TEST(Matmul, TransAMatchesExplicitTranspose)
{
    const Tensor a = randomMatrix(6, 4, 33);  // [k=6, m=4]
    const Tensor b = randomMatrix(6, 5, 34);  // [k=6, n=5]
    Tensor at(4, 6);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            at.at(j, i) = a.at(i, j);
    Tensor expected, got;
    matmul(at, b, expected);
    matmulTransA(a, b, got);
    EXPECT_LT(maxAbsDiff(got, expected), 1e-4);
}

TEST(Matmul, TransBMatchesExplicitTranspose)
{
    const Tensor a = randomMatrix(4, 6, 35);  // [m, k]
    const Tensor b = randomMatrix(5, 6, 36);  // [n, k]
    Tensor bt(6, 5);
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 6; ++j)
            bt.at(j, i) = b.at(i, j);
    Tensor expected, got;
    matmul(a, bt, expected);
    matmulTransB(a, b, got);
    EXPECT_LT(maxAbsDiff(got, expected), 1e-4);
}

TEST(MatmulDeath, ShapeMismatchPanics)
{
    Tensor a(2, 3), b(4, 5), out;
    EXPECT_DEATH(matmul(a, b, out), "matmul");
}

TEST(Matmul, ReusesOutputBuffer)
{
    const Tensor a = randomMatrix(3, 3, 40);
    const Tensor b = randomMatrix(3, 3, 41);
    Tensor out;
    matmul(a, b, out);
    const float* ptr = out.data();
    matmul(a, b, out);
    EXPECT_EQ(out.data(), ptr);
    EXPECT_LT(maxAbsDiff(out, naiveMatmul(a, b)), 1e-4);
}

TEST(Ops, AddBiasRows)
{
    Tensor x(2, 3);
    x.fill(1.0f);
    Tensor bias{1.0f, 2.0f, 3.0f};
    addBiasRows(x, bias);
    EXPECT_EQ(x.at(0, 0), 2.0f);
    EXPECT_EQ(x.at(1, 2), 4.0f);
}

TEST(Ops, SumRows)
{
    Tensor x(2, 2);
    x.at(0, 0) = 1.0f;
    x.at(0, 1) = 2.0f;
    x.at(1, 0) = 3.0f;
    x.at(1, 1) = 4.0f;
    Tensor out;
    sumRows(x, out);
    EXPECT_EQ(out[0], 4.0f);
    EXPECT_EQ(out[1], 6.0f);
}

TEST(Ops, Axpy)
{
    Tensor x{1.0f, 2.0f};
    Tensor y{10.0f, 20.0f};
    axpy(2.0f, x, y);
    EXPECT_EQ(y[0], 12.0f);
    EXPECT_EQ(y[1], 24.0f);
}

TEST(Ops, Scale)
{
    Tensor x{2.0f, -4.0f};
    scale(x, 0.5f);
    EXPECT_EQ(x[0], 1.0f);
    EXPECT_EQ(x[1], -2.0f);
}

TEST(Ops, ReluForwardAndBackward)
{
    Tensor x{-1.0f, 0.0f, 2.0f};
    Tensor y = x;
    reluInPlace(y);
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 0.0f);
    EXPECT_EQ(y[2], 2.0f);

    Tensor dy{5.0f, 6.0f, 7.0f};
    Tensor dx;
    reluBackward(y, dy, dx);
    EXPECT_EQ(dx[0], 0.0f);
    EXPECT_EQ(dx[1], 0.0f);
    EXPECT_EQ(dx[2], 7.0f);
}

TEST(Ops, ReluBackwardInPlaceAlias)
{
    Tensor y{0.0f, 3.0f};
    Tensor dy{4.0f, 5.0f};
    reluBackward(y, dy, dy);
    EXPECT_EQ(dy[0], 0.0f);
    EXPECT_EQ(dy[1], 5.0f);
}

TEST(Ops, SigmoidValuesAndStability)
{
    Tensor x{0.0f, 100.0f, -100.0f};
    sigmoidInPlace(x);
    EXPECT_NEAR(x[0], 0.5f, 1e-6);
    EXPECT_NEAR(x[1], 1.0f, 1e-6);
    EXPECT_NEAR(x[2], 0.0f, 1e-6);
    EXPECT_TRUE(std::isfinite(x[1]));
    EXPECT_TRUE(std::isfinite(x[2]));
}

TEST(Ops, DotAndNorm)
{
    Tensor a{3.0f, 4.0f};
    EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
    EXPECT_DOUBLE_EQ(l2Norm(a), 5.0);
}

TEST(Ops, MaxAbsDiff)
{
    Tensor a{1.0f, 2.0f};
    Tensor b{1.5f, 1.0f};
    EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 1.0);
}

TEST(Ops, ClipL2Norm)
{
    Tensor x{3.0f, 4.0f};
    clipL2Norm(x, 2.5);
    EXPECT_NEAR(l2Norm(x), 2.5, 1e-6);
    Tensor y{0.3f, 0.4f};
    clipL2Norm(y, 2.5);
    EXPECT_NEAR(l2Norm(y), 0.5, 1e-6);
}

// ---- SIMD microkernel contracts ------------------------------------

bool
bitwiseEqualTensors(const Tensor& a, const Tensor& b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/**
 * The accumulation-order contract of ops.h, executed literally: per
 * output element the k products fold in increasing p, each as one
 * std::fma, starting from zero. Every matmul code path (scalar tiles,
 * AVX2 register blocks, any cache blocking, any thread count) must
 * reproduce this bit for bit.
 */
Tensor
contractMatmul(const Tensor& a, const Tensor& b)
{
    Tensor out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (std::size_t p = 0; p < a.cols(); ++p)
                acc = std::fma(a.at(i, p), b.at(p, j), acc);
            out.at(i, j) = acc;
        }
    return out;
}

TEST(Simd, FastExpDenseSweepWithinRelTol)
{
    // Dense sweep over the whole un-clamped domain: the kernel promises
    // <= 1e-6 relative error against libm everywhere it is used
    // (sigmoid). 350k points at 0.5e-3 spacing.
    double max_rel = 0.0;
    for (double x = -87.0; x <= 88.0; x += 0.5e-3) {
        const auto xf = static_cast<float>(x);
        const double want = std::exp(static_cast<double>(xf));
        const double got = simd::fastExp(xf);
        max_rel = std::max(max_rel, std::abs(got - want) / want);
    }
    EXPECT_LE(max_rel, 1e-6);
}

TEST(Simd, FastExpClampsAndEdgeValues)
{
    EXPECT_EQ(simd::fastExp(0.0f), 1.0f);
    // Far outside the clamp range: finite, monotone-consistent limits.
    EXPECT_GT(simd::fastExp(1000.0f), 1e38f);
    EXPECT_TRUE(std::isfinite(simd::fastExp(1000.0f)));
    EXPECT_LT(simd::fastExp(-1000.0f), 1e-37f);
    EXPECT_GE(simd::fastExp(-1000.0f), 0.0f);
    // Scalar reference path and dispatched path agree bitwise.
    for (float x : {-80.0f, -1.5f, 0.0f, 0.7f, 42.0f}) {
        EXPECT_EQ(simd::fastExp(x), simd::fastExpScalar(x));
    }
}

TEST(Simd, SigmoidVectorLaneMatchesScalarTail)
{
    // 9 copies of one value: element 0 runs in the 8-wide vector body,
    // element 8 in the scalar tail. The dispatch contract requires the
    // two paths to be bit-identical for non-NaN inputs.
    for (float x : {-30.0f, -2.5f, -0.1f, 0.0f, 0.3f, 4.0f, 50.0f}) {
        float buf[9];
        for (float& v : buf)
            v = x;
        simd::sigmoidSpan(buf, 9);
        EXPECT_EQ(std::memcmp(&buf[0], &buf[8], sizeof(float)), 0)
            << "vector lane and scalar tail disagree at x = " << x;
    }
}

TEST(Simd, ConfiguredTierReadsEachSpellingCappedAtTheCpu)
{
    for (const simd::Tier tier :
         {simd::Tier::Scalar, simd::Tier::Avx2, simd::Tier::Avx512}) {
        ScopedEnv env("RECSIM_SIMD", simd::tierName(tier));
        EXPECT_EQ(simd::configuredTier(),
                  std::min(tier, simd::supportedTier()))
            << simd::tierName(tier);
    }
    ScopedEnv env("RECSIM_SIMD", "");
    EXPECT_EQ(simd::configuredTier(), simd::supportedTier());
    EXPECT_STREQ(simd::activeKernels(),
                 simd::tierName(simd::activeTier()));
}

TEST(SimdDeathTest, UnknownTierIsFatalAndNamesTheTiers)
{
    // Re-exec per death test: the child then has no pool workers for
    // exit() to wait on.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char* value :
         {"AVX2", "avx2-fma", "avx512f", "1", " scalar", "avx2 "}) {
        EXPECT_EXIT(
            {
                setenv("RECSIM_SIMD", value, 1);
                simd::configuredTier();
            },
            ::testing::ExitedWithCode(1), "use scalar, avx2 or avx512")
            << "RECSIM_SIMD='" << value << "'";
    }
}

TEST(Matmul, AccumulationOrderContractBitwise)
{
    // Odd sizes: exercise the 6-row blocks, the 16/8-wide column tiles,
    // the scalar tails and a k crossing the 128-deep panel boundary.
    const Tensor a = randomMatrix(13, 131, 7);
    const Tensor b = randomMatrix(131, 37, 8);
    const Tensor want = contractMatmul(a, b);
    Tensor got;
    matmul(a, b, got);
    EXPECT_TRUE(bitwiseEqualTensors(got, want));
}

TEST(Matmul, TransVariantsHonorAccumulationContractBitwise)
{
    const Tensor a = randomMatrix(13, 131, 9);
    const Tensor b = randomMatrix(131, 37, 10);

    // A^T path: matmulTransA(a', b) with a' = a^T must equal the
    // contract fold of (a, b).
    Tensor at(a.cols(), a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            at.at(j, i) = a.at(i, j);
    Tensor got;
    matmulTransA(at, b, got);
    EXPECT_TRUE(bitwiseEqualTensors(got, contractMatmul(a, b)));

    // B^T path likewise.
    Tensor bt(b.cols(), b.rows());
    for (std::size_t i = 0; i < b.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j)
            bt.at(j, i) = b.at(i, j);
    matmulTransB(a, bt, got);
    EXPECT_TRUE(bitwiseEqualTensors(got, contractMatmul(a, b)));
}

TEST(Matmul, FusedBiasActBitwiseEqualsUnfusedPipeline)
{
    const Tensor a = randomMatrix(9, 131, 11);
    const Tensor b = randomMatrix(131, 33, 12);
    util::Rng rng(13);
    Tensor bias(33);
    bias.fillNormal(rng, 1.0f);

    for (bool relu : {false, true}) {
        Tensor unfused;
        matmul(a, b, unfused);
        addBiasRows(unfused, bias);
        if (relu)
            reluInPlace(unfused);
        Tensor fused;
        matmulBiasAct(a, b, bias, relu, fused);
        EXPECT_TRUE(bitwiseEqualTensors(fused, unfused))
            << "relu = " << relu;
    }
}

TEST(Ops, SumRowsBitwiseMatchesSerialRowOrderFold)
{
    const Tensor x = randomMatrix(37, 23, 14);
    Tensor want(x.cols());
    for (std::size_t j = 0; j < x.cols(); ++j) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < x.rows(); ++i)
            acc += x.at(i, j);
        want[j] = acc;
    }
    Tensor got;
    sumRows(x, got);
    EXPECT_TRUE(bitwiseEqualTensors(got, want));
}

TEST(Ops, SumRowsAccumulatesInRowOrder)
{
    // (1e8 + 1) - 1e8 == 0 in float because 1e8 + 1 rounds back to
    // 1e8; any other accumulation order gives 1. Pins the top-to-bottom
    // fold the vectorized column tiles must preserve.
    Tensor x(3, 1);
    x.at(0, 0) = 1e8f;
    x.at(1, 0) = 1.0f;
    x.at(2, 0) = -1e8f;
    Tensor out;
    sumRows(x, out);
    EXPECT_EQ(out[0], 0.0f);
}

// ---- Fused backward kernels ----------------------------------------

TEST(Matmul, TransBMaskBitwiseEqualsUnfusedMaskPipeline)
{
    // dx = (dy W) * 1[y > 0]: the mask applied in the GEMM store must
    // match matmulTransB followed by reluBackward bit for bit. Odd
    // shapes cross the register-tile and cache-panel edges.
    const Tensor dy = randomMatrix(13, 131, 31);
    const Tensor w = randomMatrix(37, 131, 32);
    Tensor y = randomMatrix(13, 37, 33);
    // Edge bits the predicate must treat exactly like reluBackward:
    // -0.0 and NaN both fail y > 0 and zero the element.
    y.at(0, 0) = -0.0f;
    y.at(1, 5) = std::numeric_limits<float>::quiet_NaN();
    y.at(2, 36) = 0.0f;

    Tensor unfused;
    matmulTransB(dy, w, unfused);
    reluBackward(y, unfused, unfused);
    Tensor fused;
    matmulTransBMask(dy, w, &y, fused);
    EXPECT_TRUE(bitwiseEqualTensors(fused, unfused));
    EXPECT_EQ(fused.at(0, 0), 0.0f);
    EXPECT_EQ(fused.at(1, 5), 0.0f);
    EXPECT_EQ(fused.at(2, 36), 0.0f);
}

TEST(Matmul, TransABiasGradBitwiseEqualsUnfusedPair)
{
    // dw = x^T dy with db = sumRows(dy) riding the same sweep: both
    // outputs must match the standalone kernels bit for bit (the
    // fused column sums fold rows in the same increasing order).
    const Tensor x = randomMatrix(131, 13, 34);
    const Tensor dy = randomMatrix(131, 37, 35);

    Tensor dw_ref, db_ref;
    matmulTransA(x, dy, dw_ref);
    sumRows(dy, db_ref);
    Tensor dw, db;
    matmulTransABiasGrad(x, dy, dw, db);
    EXPECT_TRUE(bitwiseEqualTensors(dw, dw_ref));
    EXPECT_TRUE(bitwiseEqualTensors(db, db_ref));
}

TEST(Matmul, TransBSegmentedBitwiseEqualsColumnSplit)
{
    // Splitting the output columns across destination tensors must
    // not disturb any element's fma chain; a zero-bias segment adds
    // +0.0f in the epilogue, which only normalizes -0.0 to +0.0 —
    // exactly what the unfused zero-then-accumulate scatter produces.
    const Tensor a = randomMatrix(9, 67, 36);
    const Tensor b = randomMatrix(41, 67, 37);
    Tensor full;
    matmulTransB(a, b, full);

    Tensor s0, s1, s2;
    std::vector<GemmOutSegment> segs = {
        {&s0, 16, /*zero_bias=*/true}, {&s1, 24, false}, {&s2, 1, false}};
    matmulTransBSegmented(a, b, segs);

    for (std::size_t i = 0; i < full.rows(); ++i)
        for (std::size_t j = 0; j < full.cols(); ++j) {
            const float want = j < 16 ? full.at(i, j) + 0.0f
                : full.at(i, j);
            const float got = j < 16 ? s0.at(i, j)
                : j < 40 ? s1.at(i, j - 16) : s2.at(i, j - 40);
            EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
                << "element (" << i << ", " << j << ")";
        }
}

// ---- GEMM output tiles ---------------------------------------------

Tensor
transposed(const Tensor& x)
{
    Tensor t(x.cols(), x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i)
        for (std::size_t j = 0; j < x.cols(); ++j)
            t.at(j, i) = x.at(i, j);
    return t;
}

/** Restores the global pool to its configured size on scope exit. */
struct PoolSizeGuard
{
    ~PoolSizeGuard()
    {
        util::globalThreadPool().resize(util::configuredThreads());
    }
};

/** (m, k, n) of the logical product A [m, k] x B [k, n]. */
class GemmTileEdges
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>>
{
};

TEST_P(GemmTileEdges, EveryEntryPointMatchesContractAtPool1And8)
{
    // Each entry point is fed the operand layout it expects (A^T for
    // the transposed-A kernels, B^T for the transposed-B ones) and must
    // reproduce the literal fma fold bit for bit — with the epilogue,
    // mask, bias-grad and segment split applied to the fold's result —
    // whatever tiles the shape is cut into and however many threads
    // run them.
    const auto [m, k, n] = GetParam();
    const Tensor a = randomMatrix(m, k, 100 + m);
    const Tensor b = randomMatrix(k, n, 200 + n);
    const Tensor at = transposed(a), bt = transposed(b);
    util::Rng rng(300 + k);
    Tensor bias(n);
    bias.fillNormal(rng, 1.0f);
    Tensor mask = randomMatrix(m, n, 400 + k);
    mask.at(0, 0) = -0.0f;
    mask.at(m - 1, n - 1) = 0.0f;

    const Tensor want = contractMatmul(a, b);
    Tensor want_bias(m, n), want_relu(m, n), want_mask(m, n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            want_bias.at(i, j) = want.at(i, j) + bias[j];
            want_relu.at(i, j) = std::max(want_bias.at(i, j), 0.0f);
            want_mask.at(i, j) =
                mask.at(i, j) > 0.0f ? want.at(i, j) : 0.0f;
        }
    Tensor want_db(n);
    for (std::size_t p = 0; p < k; ++p)
        for (std::size_t j = 0; j < n; ++j)
            want_db[j] += b.at(p, j);

    // Segments: a zero-bias head of half the columns, then pieces of at
    // most 64 (the concat interaction's per-table outputs).
    std::vector<std::size_t> widths = {n / 2};
    for (std::size_t c = n / 2; c < n; c += 64)
        widths.push_back(std::min<std::size_t>(64, n - c));

    PoolSizeGuard guard;
    for (const std::size_t threads : {1, 8}) {
        SCOPED_TRACE(::testing::Message() << "pool " << threads);
        util::globalThreadPool().resize(threads);
        Tensor got;
        matmul(a, b, got);
        EXPECT_TRUE(bitwiseEqualTensors(got, want)) << "matmul";
        matmulTransA(at, b, got);
        EXPECT_TRUE(bitwiseEqualTensors(got, want)) << "matmulTransA";
        matmulTransB(a, bt, got);
        EXPECT_TRUE(bitwiseEqualTensors(got, want)) << "matmulTransB";
        matmulBiasAct(a, b, bias, false, got);
        EXPECT_TRUE(bitwiseEqualTensors(got, want_bias)) << "bias";
        matmulBiasAct(a, b, bias, true, got);
        EXPECT_TRUE(bitwiseEqualTensors(got, want_relu)) << "bias+relu";
        matmulTransBMask(a, bt, &mask, got);
        EXPECT_TRUE(bitwiseEqualTensors(got, want_mask)) << "mask";

        Tensor dw, db;
        matmulTransABiasGrad(at, b, dw, db);
        EXPECT_TRUE(bitwiseEqualTensors(dw, want)) << "bias-grad dw";
        EXPECT_TRUE(bitwiseEqualTensors(db, want_db)) << "bias-grad db";

        std::vector<Tensor> outs(widths.size());
        std::vector<GemmOutSegment> segs;
        for (std::size_t s = 0; s < widths.size(); ++s)
            segs.push_back({&outs[s], widths[s], s == 0});
        matmulTransBSegmented(a, bt, segs);
        bool segments_equal = true;
        for (std::size_t s = 0, c0 = 0; s < widths.size(); ++s) {
            for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = 0; j < widths[s]; ++j) {
                    const float expect = s == 0
                        ? want.at(i, c0 + j) + 0.0f : want.at(i, c0 + j);
                    segments_equal = segments_equal &&
                        std::memcmp(&outs[s].at(i, j), &expect,
                                    sizeof(float)) == 0;
                }
            c0 += widths[s];
        }
        EXPECT_TRUE(segments_equal) << "segmented";
    }
}

// Shapes that cross the tiling's edges: output widths one under, at
// and over the 128-column tile and a three-tile width; row counts
// around the 240-row block (wide enough that the column tiles alone
// reach the minimum tile count) and under one 6-row register tile
// (with enough work to be split into column tiles); depths around the
// 128-deep k-panel; an output with one column block that is split into
// row blocks instead; and the train_mlp layer shapes. The AVX-512 block
// cuts a tile into 12-row register tiles plus a compile-time tail:
// across the list the tiles leave every tail of 1 .. 11 rows, and the
// last five shapes (tails 2, 3, 4, 9, 10) end their rows in a single
// full 16-float vector (n = 16), one lane past it (17) or a partial
// second vector (47).
INSTANTIATE_TEST_SUITE_P(
    TileEdges, GemmTileEdges,
    ::testing::Values(std::make_tuple(13, 131, 127),
                      std::make_tuple(13, 131, 128),
                      std::make_tuple(13, 131, 129),
                      std::make_tuple(7, 131, 257),
                      std::make_tuple(239, 41, 513),
                      std::make_tuple(240, 41, 513),
                      std::make_tuple(241, 41, 513),
                      std::make_tuple(1, 1024, 129),
                      std::make_tuple(5, 129, 257),
                      std::make_tuple(31, 127, 45),
                      std::make_tuple(31, 128, 45),
                      std::make_tuple(31, 129, 45),
                      std::make_tuple(128, 1024, 64),
                      std::make_tuple(128, 504, 1024),
                      std::make_tuple(128, 896, 1024),
                      std::make_tuple(14, 67, 16),
                      std::make_tuple(15, 130, 17),
                      std::make_tuple(16, 129, 47),
                      std::make_tuple(21, 33, 17),
                      std::make_tuple(22, 33, 47)));

TEST(Simd, ReluMaskSpanVectorLaneMatchesScalarTail)
{
    // 9 lanes: one full 8-wide vector plus a scalar tail. Same y and
    // dy in every lane, so lane 0 (vector) must equal lane 8 (tail).
    const float ys[] = {-3.0f, -0.0f, 0.0f, 0.5f,
                        std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity()};
    for (float yv : ys) {
        float y[9], dy[9], dx[9];
        for (int i = 0; i < 9; ++i) {
            y[i] = yv;
            dy[i] = 2.5f;
        }
        simd::reluMaskSpan(y, dy, dx, 9);
        EXPECT_EQ(std::memcmp(&dx[0], &dx[8], sizeof(float)), 0)
            << "vector lane and scalar tail disagree at y = " << yv;
        const float want = yv > 0.0f ? 2.5f : 0.0f;
        EXPECT_EQ(std::memcmp(&dx[0], &want, sizeof(float)), 0)
            << "wrong mask result at y = " << yv;
    }
}

TEST(Simd, ReluMaskSpanInPlaceAlias)
{
    // dy and dx may alias (reluBackward's in-place use).
    float y[11], g[11];
    for (int i = 0; i < 11; ++i) {
        y[i] = i % 2 == 0 ? 1.0f : -1.0f;
        g[i] = static_cast<float>(i) + 0.5f;
    }
    simd::reluMaskSpan(y, g, g, 11);
    for (int i = 0; i < 11; ++i)
        EXPECT_EQ(g[i],
                  i % 2 == 0 ? static_cast<float>(i) + 0.5f : 0.0f);
}

} // namespace
} // namespace recsim::tensor
