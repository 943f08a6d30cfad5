/**
 * @file
 * Unit tests for recsim::nn. The backward passes are verified against
 * central-difference numerical gradients — the strongest correctness
 * property a manual-backprop stack can have.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "nn/embedding_bag.h"
#include "nn/interaction.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace recsim::nn {
namespace {

using tensor::Tensor;

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

/** Scalar loss used by grad checks: 0.5 * sum(y^2). */
double
halfSquaredSum(const Tensor& y)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
        acc += 0.5 * static_cast<double>(y.data()[i]) * y.data()[i];
    return acc;
}

/** d(halfSquaredSum)/dy = y. */
Tensor
lossGrad(const Tensor& y)
{
    return y;
}

TEST(Linear, ForwardMatchesManual)
{
    util::Rng rng(1);
    Linear layer(2, 3, rng);
    layer.weight.at(0, 0) = 1.0f;
    layer.weight.at(0, 1) = 2.0f;
    layer.weight.at(0, 2) = 3.0f;
    layer.weight.at(1, 0) = 4.0f;
    layer.weight.at(1, 1) = 5.0f;
    layer.weight.at(1, 2) = 6.0f;
    layer.bias[0] = 0.1f;
    layer.bias[1] = 0.2f;
    layer.bias[2] = 0.3f;

    Tensor x(1, 2);
    x.at(0, 0) = 1.0f;
    x.at(0, 1) = 2.0f;
    Tensor y;
    layer.forward(x, y);
    EXPECT_NEAR(y.at(0, 0), 9.1f, 1e-5);
    EXPECT_NEAR(y.at(0, 1), 12.2f, 1e-5);
    EXPECT_NEAR(y.at(0, 2), 15.3f, 1e-5);
}

TEST(Linear, GradCheckWeightsBiasInput)
{
    util::Rng rng(2);
    Linear layer(4, 3, rng);
    Tensor x(2, 4);
    x.fillNormal(rng, 1.0f);

    auto loss = [&] {
        Tensor y;
        layer.forward(x, y);
        return halfSquaredSum(y);
    };

    Tensor y;
    layer.forward(x, y);
    layer.zeroGrad();
    Tensor dx;
    layer.backward(x, lossGrad(y), dx);

    for (std::size_t i = 0; i < layer.weight.size(); i += 3) {
        EXPECT_NEAR(layer.gradWeight.data()[i],
                    numericalGrad(layer.weight, i, loss), 2e-2)
            << "weight " << i;
    }
    for (std::size_t i = 0; i < layer.bias.size(); ++i) {
        EXPECT_NEAR(layer.gradBias.data()[i],
                    numericalGrad(layer.bias, i, loss), 2e-2)
            << "bias " << i;
    }
    for (std::size_t i = 0; i < x.size(); i += 2) {
        EXPECT_NEAR(dx.data()[i], numericalGrad(x, i, loss), 2e-2)
            << "input " << i;
    }
}

TEST(Linear, GradsAccumulateAcrossCalls)
{
    util::Rng rng(3);
    Linear layer(2, 2, rng);
    Tensor x(1, 2);
    x.fill(1.0f);
    Tensor y;
    layer.forward(x, y);
    Tensor dy(1, 2);
    dy.fill(1.0f);
    layer.backwardNoInputGrad(x, dy);
    const float once = layer.gradWeight.at(0, 0);
    layer.backwardNoInputGrad(x, dy);
    EXPECT_NEAR(layer.gradWeight.at(0, 0), 2.0f * once, 1e-6);
    layer.zeroGrad();
    EXPECT_EQ(layer.gradWeight.at(0, 0), 0.0f);
}

TEST(Mlp, ForwardShapes)
{
    util::Rng rng(4);
    Mlp mlp(8, {16, 4}, rng);
    EXPECT_EQ(mlp.inFeatures(), 8u);
    EXPECT_EQ(mlp.outFeatures(), 4u);
    EXPECT_EQ(mlp.numLayers(), 2u);
    Tensor x(3, 8);
    x.fillNormal(rng, 1.0f);
    Tensor y;
    mlp.forward(x, y);
    EXPECT_EQ(y.rows(), 3u);
    EXPECT_EQ(y.cols(), 4u);
}

TEST(Mlp, NumParamsCountsAllLayers)
{
    util::Rng rng(5);
    Mlp mlp(8, {16, 4}, rng);
    EXPECT_EQ(mlp.numParams(), 8u * 16 + 16 + 16 * 4 + 4);
}

TEST(Mlp, GradCheckThroughReluStack)
{
    util::Rng rng(6);
    Mlp mlp(3, {5, 4, 2}, rng);
    Tensor x(2, 3);
    x.fillNormal(rng, 1.0f);

    auto loss = [&] {
        Tensor y;
        mlp.forward(x, y);
        return halfSquaredSum(y);
    };

    Tensor y;
    mlp.forward(x, y);
    mlp.zeroGrad();
    Tensor dx;
    mlp.backward(x, lossGrad(y), dx);

    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(dx.data()[i], numericalGrad(x, i, loss), 3e-2);

    auto& first = mlp.layers()[0];
    for (std::size_t i = 0; i < first.weight.size(); i += 2) {
        EXPECT_NEAR(first.gradWeight.data()[i],
                    numericalGrad(first.weight, i, loss), 3e-2);
    }
    auto& last = mlp.layers()[2];
    for (std::size_t i = 0; i < last.weight.size(); ++i) {
        EXPECT_NEAR(last.gradWeight.data()[i],
                    numericalGrad(last.weight, i, loss), 3e-2);
    }
}

SparseBatch
makeBatch(std::vector<std::vector<uint64_t>> per_example)
{
    SparseBatch batch;
    batch.offsets.push_back(0);
    for (auto& ex : per_example) {
        batch.indices.insert(batch.indices.end(), ex.begin(), ex.end());
        batch.offsets.push_back(batch.indices.size());
    }
    return batch;
}

TEST(EmbeddingBag, SumPoolingAddsRows)
{
    util::Rng rng(7);
    EmbeddingBag bag(4, 2, rng, Pooling::Sum);
    bag.table.zero();
    bag.table.at(1, 0) = 1.0f;
    bag.table.at(1, 1) = 2.0f;
    bag.table.at(3, 0) = 10.0f;
    bag.table.at(3, 1) = 20.0f;

    const SparseBatch batch = makeBatch({{1, 3}, {}, {1, 1}});
    Tensor out;
    bag.forward(batch, out);
    EXPECT_EQ(out.rows(), 3u);
    EXPECT_NEAR(out.at(0, 0), 11.0f, 1e-6);
    EXPECT_NEAR(out.at(0, 1), 22.0f, 1e-6);
    EXPECT_EQ(out.at(1, 0), 0.0f);  // empty example -> zero row
    EXPECT_NEAR(out.at(2, 0), 2.0f, 1e-6);
}

TEST(EmbeddingBag, MeanPoolingDividesByLength)
{
    util::Rng rng(8);
    EmbeddingBag bag(4, 1, rng, Pooling::Mean);
    bag.table.zero();
    bag.table.at(0, 0) = 2.0f;
    bag.table.at(1, 0) = 4.0f;
    const SparseBatch batch = makeBatch({{0, 1}});
    Tensor out;
    bag.forward(batch, out);
    EXPECT_NEAR(out.at(0, 0), 3.0f, 1e-6);
}

TEST(EmbeddingBag, HashTrickWrapsIndices)
{
    util::Rng rng(9);
    EmbeddingBag bag(4, 1, rng, Pooling::Sum);
    bag.table.zero();
    bag.table.at(1, 0) = 5.0f;
    // 9 % 4 == 1: collides with row 1.
    const SparseBatch batch = makeBatch({{9}});
    Tensor out;
    bag.forward(batch, out);
    EXPECT_NEAR(out.at(0, 0), 5.0f, 1e-6);
}

TEST(EmbeddingBag, BackwardCoalescesDuplicateRows)
{
    util::Rng rng(10);
    EmbeddingBag bag(8, 2, rng, Pooling::Sum);
    const SparseBatch batch = makeBatch({{2, 2, 5}, {5}});
    Tensor dy(2, 2);
    dy.fill(1.0f);
    SparseGrad grad;
    bag.backward(batch, dy, grad);
    ASSERT_EQ(grad.rows.size(), 2u);
    // Row 2 appears twice in example 0 -> gradient 2; row 5 appears in
    // both examples -> gradient 2 as well.
    for (std::size_t r = 0; r < grad.rows.size(); ++r) {
        EXPECT_NEAR(grad.values.at(r, 0), 2.0f, 1e-6);
        EXPECT_NEAR(grad.values.at(r, 1), 2.0f, 1e-6);
    }
}

TEST(EmbeddingBag, GradCheck)
{
    util::Rng rng(11);
    EmbeddingBag bag(6, 3, rng, Pooling::Mean);
    const SparseBatch batch = makeBatch({{0, 2, 2}, {4}});

    auto loss = [&] {
        Tensor out;
        bag.forward(batch, out);
        return halfSquaredSum(out);
    };

    Tensor out;
    bag.forward(batch, out);
    SparseGrad grad;
    bag.backward(batch, lossGrad(out), grad);

    for (std::size_t r = 0; r < grad.rows.size(); ++r) {
        for (std::size_t j = 0; j < bag.dim(); ++j) {
            const std::size_t flat =
                static_cast<std::size_t>(grad.rows[r]) * bag.dim() + j;
            EXPECT_NEAR(grad.values.at(r, j),
                        numericalGrad(bag.table, flat, loss), 2e-2);
        }
    }
}

TEST(EmbeddingBag, ParamBytes)
{
    util::Rng rng(12);
    EmbeddingBag bag(1000, 64, rng);
    EXPECT_EQ(bag.paramBytes(), 1000u * 64 * 4);
}

TEST(CatInteraction, ConcatAndSplit)
{
    CatInteraction cat;
    Tensor dense(2, 3);
    dense.fill(1.0f);
    std::vector<Tensor> embs(2, Tensor(2, 2));
    embs[0].fill(2.0f);
    embs[1].fill(3.0f);
    Tensor out;
    cat.forward(dense, embs, out);
    EXPECT_EQ(out.cols(), 7u);
    EXPECT_EQ(out.at(0, 0), 1.0f);
    EXPECT_EQ(out.at(0, 3), 2.0f);
    EXPECT_EQ(out.at(0, 5), 3.0f);

    Tensor dy(2, 7);
    for (std::size_t i = 0; i < dy.size(); ++i)
        dy.data()[i] = static_cast<float>(i);
    Tensor d_dense;
    std::vector<Tensor> d_embs;
    cat.backward(dense, embs, dy, d_dense, d_embs);
    EXPECT_EQ(d_dense.at(0, 2), 2.0f);
    EXPECT_EQ(d_embs[0].at(0, 0), 3.0f);
    EXPECT_EQ(d_embs[1].at(0, 1), 6.0f);
}

TEST(DotInteraction, OutWidthFormula)
{
    EXPECT_EQ(DotInteraction::outWidth(3, 8), 8u + 6u);
    EXPECT_EQ(DotInteraction::outWidth(0, 8), 8u);
}

TEST(DotInteraction, ForwardComputesPairwiseDots)
{
    DotInteraction dot;
    Tensor dense(1, 2);
    dense.at(0, 0) = 1.0f;
    dense.at(0, 1) = 2.0f;
    std::vector<Tensor> embs(1, Tensor(1, 2));
    embs[0].at(0, 0) = 3.0f;
    embs[0].at(0, 1) = 4.0f;
    Tensor out;
    dot.forward(dense, embs, out);
    ASSERT_EQ(out.cols(), 3u);
    EXPECT_EQ(out.at(0, 0), 1.0f);
    EXPECT_EQ(out.at(0, 1), 2.0f);
    EXPECT_NEAR(out.at(0, 2), 11.0f, 1e-6);  // 1*3 + 2*4
}

TEST(DotInteraction, GradCheck)
{
    util::Rng rng(13);
    DotInteraction dot;
    Tensor dense(2, 4);
    dense.fillNormal(rng, 1.0f);
    std::vector<Tensor> embs(3, Tensor(2, 4));
    for (auto& e : embs)
        e.fillNormal(rng, 1.0f);

    auto loss = [&] {
        Tensor out;
        dot.forward(dense, embs, out);
        return halfSquaredSum(out);
    };

    Tensor out;
    dot.forward(dense, embs, out);
    Tensor d_dense;
    std::vector<Tensor> d_embs;
    dot.backward(dense, embs, lossGrad(out), d_dense, d_embs);

    for (std::size_t i = 0; i < dense.size(); ++i)
        EXPECT_NEAR(d_dense.data()[i], numericalGrad(dense, i, loss),
                    5e-2);
    for (std::size_t s = 0; s < embs.size(); ++s)
        for (std::size_t i = 0; i < embs[s].size(); i += 3)
            EXPECT_NEAR(d_embs[s].data()[i],
                        numericalGrad(embs[s], i, loss), 5e-2);
}

TEST(Loss, BceKnownValues)
{
    Tensor logits{0.0f};
    const std::vector<float> labels = {1.0f};
    EXPECT_NEAR(bceWithLogitsLoss(logits, labels), std::log(2.0), 1e-6);
}

TEST(Loss, BceGradMatchesNumerical)
{
    util::Rng rng(14);
    Tensor logits(5);
    logits.fillNormal(rng, 2.0f);
    const std::vector<float> labels = {1.0f, 0.0f, 1.0f, 0.0f, 1.0f};
    Tensor grad;
    bceWithLogits(logits, labels, grad);
    auto loss = [&] { return bceWithLogitsLoss(logits, labels); };
    for (std::size_t i = 0; i < logits.size(); ++i)
        EXPECT_NEAR(grad.data()[i], numericalGrad(logits, i, loss),
                    1e-3);
}

TEST(Loss, BceStableForExtremeLogits)
{
    Tensor logits{100.0f, -100.0f};
    const std::vector<float> labels = {1.0f, 0.0f};
    const double loss = bceWithLogitsLoss(logits, labels);
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_NEAR(loss, 0.0, 1e-6);
}

TEST(Loss, NormalizedEntropyOfBaseRatePredictorIsOne)
{
    // Predicting exactly the base rate gives NE == 1.
    const double p = 0.3;
    const float logit = std::log(p / (1.0 - p));
    Tensor logits(10);
    logits.fill(logit);
    std::vector<float> labels(10, 0.0f);
    labels[0] = labels[1] = labels[2] = 1.0f;  // 30% positives
    EXPECT_NEAR(normalizedEntropy(logits, labels), 1.0, 1e-6);
}

TEST(Loss, NormalizedEntropyBelowOneForGoodModel)
{
    Tensor logits{4.0f, -4.0f, 4.0f, -4.0f};
    const std::vector<float> labels = {1.0f, 0.0f, 1.0f, 0.0f};
    EXPECT_LT(normalizedEntropy(logits, labels), 0.2);
}

TEST(Loss, Accuracy)
{
    Tensor logits{2.0f, -1.0f, 0.5f, -0.5f};
    const std::vector<float> labels = {1.0f, 0.0f, 0.0f, 1.0f};
    EXPECT_DOUBLE_EQ(accuracy(logits, labels), 0.5);
}

TEST(Sgd, DenseStep)
{
    Tensor p{1.0f, 2.0f};
    Tensor g{0.5f, -0.5f};
    Sgd opt(0.1f);
    opt.step(p, g);
    EXPECT_NEAR(p[0], 0.95f, 1e-6);
    EXPECT_NEAR(p[1], 2.05f, 1e-6);
}

TEST(Sgd, SparseStepTouchesOnlyListedRows)
{
    util::Rng rng(15);
    EmbeddingBag bag(4, 2, rng);
    const Tensor before = bag.table;
    SparseGrad grad;
    grad.rows = {2};
    grad.values = Tensor(1, 2);
    grad.values.fill(1.0f);
    Sgd opt(0.5f);
    opt.stepSparse(bag, grad);
    EXPECT_NEAR(bag.table.at(2, 0), before.at(2, 0) - 0.5f, 1e-6);
    EXPECT_EQ(bag.table.at(0, 0), before.at(0, 0));
    EXPECT_EQ(bag.table.at(3, 1), before.at(3, 1));
}

TEST(Adagrad, StepShrinksWithAccumulation)
{
    Tensor p(1);
    p[0] = 0.0f;
    Tensor g{1.0f};
    Adagrad opt(0.1f);
    opt.step(p, g);
    const float first = -p[0];
    const float before = p[0];
    opt.step(p, g);
    const float second = before - p[0];
    EXPECT_GT(first, 0.0f);
    EXPECT_GT(second, 0.0f);
    EXPECT_LT(second, first);
}

TEST(Adagrad, RowwiseSparseOnlyTouchesRows)
{
    util::Rng rng(16);
    EmbeddingBag bag(4, 2, rng);
    const Tensor before = bag.table;
    SparseGrad grad;
    grad.rows = {1};
    grad.values = Tensor(1, 2);
    grad.values.fill(2.0f);
    Adagrad opt(0.1f);
    opt.stepSparse(bag, grad);
    EXPECT_NE(bag.table.at(1, 0), before.at(1, 0));
    EXPECT_EQ(bag.table.at(0, 0), before.at(0, 0));
}

// ---- Dense optimizer kernels ---------------------------------------

/**
 * Adagrad::step's dense loop as it was written before it moved onto
 * tensor::simd::adagradSpan, kept as the oracle: every kernel path must
 * reproduce it bit for bit.
 */
void
adagradLoop(float* p, float* acc, const float* g, std::size_t n,
            float lr, float eps)
{
    for (std::size_t i = 0; i < n; ++i) {
        acc[i] += g[i] * g[i];
        p[i] -= lr * g[i] / (std::sqrt(acc[i]) + eps);
    }
}

/** Sgd::step's dense loop before tensor::simd::sgdSpan. */
void
sgdLoop(float* p, const float* g, std::size_t n, float lr)
{
    for (std::size_t i = 0; i < n; ++i)
        p[i] -= lr * g[i];
}

/** Restores the global pool to its configured size on scope exit. */
struct PoolSizeGuard
{
    ~PoolSizeGuard()
    {
        util::globalThreadPool().resize(util::configuredThreads());
    }
};

bool
bitwiseEqual(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/**
 * A dense gradient sweep: every fifth element is one of the edge
 * values (signed zeros, denormals, squares that underflow or overflow
 * to inf, the largest floats), the rest are random over 24 decades.
 */
std::vector<float>
gradientSweep(std::size_t n, uint64_t seed)
{
    constexpr float kMax = std::numeric_limits<float>::max();
    constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
    constexpr float kNormMin = std::numeric_limits<float>::min();
    const float edges[] = {-0.0f, 0.0f,    kDenorm,  -kDenorm, 1e-40f,
                           -3e-39f, kNormMin, -kNormMin, 1e-20f, -1e-23f,
                           1.8e19f, -2e19f,  1e30f,    kMax,     -kMax};
    constexpr std::size_t kEdges = sizeof(edges) / sizeof(edges[0]);
    util::Rng rng(seed);
    std::vector<float> g(n);
    for (std::size_t i = 0; i < n; ++i)
        g[i] = i % 5 == 0 ? edges[(i / 5) % kEdges]
                          : static_cast<float>(
                                rng.normal() *
                                std::pow(10.0, rng.uniform(-12.0, 12.0)));
    return g;
}

std::vector<float>
uniformVector(std::size_t n, double lo, double hi, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<float> v(n);
    for (float& x : v)
        x = static_cast<float>(rng.uniform(lo, hi));
    return v;
}

TEST(DenseOptimizerKernels, SpanKernelsMatchScalarLoopsOverSweep)
{
    // 8191 = 1023 full AVX2 vectors plus a 7-element scalar tail. Five
    // steps from non-zero accumulators, so acc + g * g rounds the
    // product before the add (an fma would not) on most elements.
    constexpr std::size_t n = 8191;
    const float lr = 0.01f, eps = 1e-8f;
    std::vector<float> p = uniformVector(n, -1.0, 1.0, 1);
    std::vector<float> acc = uniformVector(n, 0.0, 4.0, 2);
    std::vector<float> p_sgd = p;
    std::vector<float> want_p = p, want_acc = acc, want_sgd = p;
    for (uint64_t step = 0; step < 5; ++step) {
        const std::vector<float> g = gradientSweep(n, 10 + step);
        tensor::simd::adagradSpan(p.data(), acc.data(), g.data(), n, lr,
                                  eps);
        adagradLoop(want_p.data(), want_acc.data(), g.data(), n, lr,
                    eps);
        tensor::simd::sgdSpan(p_sgd.data(), g.data(), n, lr);
        sgdLoop(want_sgd.data(), g.data(), n, lr);
        EXPECT_TRUE(bitwiseEqual(acc, want_acc)) << "step " << step;
        EXPECT_TRUE(bitwiseEqual(p, want_p)) << "step " << step;
        EXPECT_TRUE(bitwiseEqual(p_sgd, want_sgd)) << "step " << step;
    }
}

TEST(DenseOptimizerKernels, VectorLaneMatchesScalarTail)
{
    // 9 copies of one (param, acc, grad) triple: lane 0 runs in the
    // 8-wide body, lane 8 in the scalar tail.
    const std::vector<float> grads = gradientSweep(60, 3);
    for (const float gv : grads) {
        for (const float av : {0.0f, 1e-30f, 0.37f, 3e7f}) {
            float p[9], acc[9], g[9], p_sgd[9];
            for (int i = 0; i < 9; ++i) {
                p[i] = p_sgd[i] = 0.25f;
                acc[i] = av;
                g[i] = gv;
            }
            tensor::simd::adagradSpan(p, acc, g, 9, 0.01f, 1e-8f);
            tensor::simd::sgdSpan(p_sgd, g, 9, 0.01f);
            EXPECT_EQ(std::memcmp(&p[0], &p[8], sizeof(float)), 0)
                << "g = " << gv << ", acc = " << av;
            EXPECT_EQ(std::memcmp(&acc[0], &acc[8], sizeof(float)), 0)
                << "g = " << gv << ", acc = " << av;
            EXPECT_EQ(std::memcmp(&p_sgd[0], &p_sgd[8], sizeof(float)),
                      0)
                << "g = " << gv;
        }
    }
}

TEST(DenseOptimizerKernels, StepsMatchScalarLoopsAtPool1And8)
{
    // Several pool chunks plus a ragged end; the optimizers must give
    // the oracle's bits whatever the pool size.
    constexpr std::size_t n = 200003;
    const float lr = 0.05f;
    const std::vector<float> p0 = uniformVector(n, -1.0, 1.0, 4);
    Tensor grad(n);
    std::vector<std::vector<float>> grads;
    for (uint64_t step = 0; step < 3; ++step)
        grads.push_back(gradientSweep(n, 20 + step));

    std::vector<float> want_p = p0, want_acc(n, 0.0f), want_sgd = p0;
    for (const std::vector<float>& g : grads) {
        adagradLoop(want_p.data(), want_acc.data(), g.data(), n, lr,
                    1e-8f);
        sgdLoop(want_sgd.data(), g.data(), n, lr);
    }

    PoolSizeGuard guard;
    for (const std::size_t threads : {1, 8}) {
        SCOPED_TRACE(::testing::Message() << "pool " << threads);
        util::globalThreadPool().resize(threads);
        Tensor p(n), p_sgd(n);
        std::memcpy(p.data(), p0.data(), n * sizeof(float));
        std::memcpy(p_sgd.data(), p0.data(), n * sizeof(float));
        Adagrad adagrad(lr);
        const Sgd sgd(lr);
        for (const std::vector<float>& g : grads) {
            std::memcpy(grad.data(), g.data(), n * sizeof(float));
            adagrad.step(p, grad);
            sgd.step(p_sgd, grad);
        }
        EXPECT_TRUE(bitwiseEqual({p.data(), p.data() + n}, want_p));
        EXPECT_TRUE(bitwiseEqual(adagrad.denseState(p), want_acc));
        EXPECT_TRUE(
            bitwiseEqual({p_sgd.data(), p_sgd.data() + n}, want_sgd));
    }
}

TEST(OptimizerDeath, NonPositiveLrPanics)
{
    EXPECT_DEATH(Sgd(0.0f), "positive");
    EXPECT_DEATH(Adagrad(-1.0f), "positive");
}

} // namespace
} // namespace recsim::nn
