/**
 * @file
 * Central-difference gradient checks for every layer with a hand-written
 * backward: Linear, Mlp, EmbeddingBag (sum and mean pooling), the
 * QuantizedEmbeddingBag Fp32 dequant path, CatInteraction,
 * DotInteraction, BCE-with-logits, and the assembled Dlrm. Each check
 * scalarizes the layer output with a fixed coefficient pattern and
 * compares the analytic gradient of that scalar against (L(p+h) -
 * L(p-h)) / 2h at several shapes. A final mutation test corrupts an
 * analytic gradient and asserts the checker rejects it, so the suite
 * itself cannot silently go soft.
 */
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include <cstring>

#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/dlrm.h"
#include "nn/embedding_bag.h"
#include "nn/interaction.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/quantized_embedding.h"
#include "tensor/tensor.h"
#include "train/step_runner.h"
#include "util/random.h"
#include "util/thread_pool.h"

#include "reference_walk.h"

namespace recsim::nn {
namespace {

using tensor::Tensor;

/** Scalar loss re-evaluated at perturbed parameter values. */
using LossFn = std::function<double()>;

constexpr double kStep = 1e-2;
constexpr double kTol = 1e-3;

/**
 * Fixed O(1) coefficients c_k = 0.4 + 0.15 * (k mod 7) used to
 * scalarize a layer output: L = sum_k c_k * out[k]. dL/dout[k] = c_k.
 */
float
coef(std::size_t k)
{
    return 0.4f + 0.15f * static_cast<float>(k % 7);
}

/** Tensor of scalarization coefficients with the given shape. */
Tensor
coefTensor(std::size_t rows, std::size_t cols)
{
    Tensor c(rows, cols);
    for (std::size_t k = 0; k < c.size(); ++k)
        c.data()[k] = coef(k);
    return c;
}

/** L = sum_k coef(k) * out[k], accumulated in double. */
double
weightedSum(const Tensor& out)
{
    double sum = 0.0;
    for (std::size_t k = 0; k < out.size(); ++k)
        sum += static_cast<double>(coef(k)) * out.data()[k];
    return sum;
}

/** Central difference dL/dp for one scalar parameter. */
double
numericGradAt(float& p, const LossFn& loss, double step)
{
    const float orig = p;
    p = static_cast<float>(orig + step);
    const double up = loss();
    p = static_cast<float>(orig - step);
    const double down = loss();
    p = orig;
    return (up - down) / (2.0 * step);
}

double
numericGrad(float& p, const LossFn& loss)
{
    return numericGradAt(p, loss, kStep);
}

/** Relative error with a floor so near-zero grads compare absolutely. */
double
relErr(double analytic, double numeric)
{
    const double scale =
        std::max({std::fabs(analytic), std::fabs(numeric), 0.25});
    return std::fabs(analytic - numeric) / scale;
}

/**
 * Check every entry of @p analytic against the central difference of
 * @p loss wrt the matching entry of @p params. Returns the max relative
 * error (for the mutation test); EXPECTs each entry within tolerance.
 */
double
checkGrads(const float* analytic, float* params, std::size_t n,
           const LossFn& loss, const std::string& what)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double numeric = numericGrad(params[i], loss);
        const double err = relErr(analytic[i], numeric);
        worst = std::max(worst, err);
        EXPECT_LT(err, kTol)
            << what << "[" << i << "]: analytic=" << analytic[i]
            << " numeric=" << numeric;
    }
    return worst;
}

/** Random rank-2 tensor in U(-1, 1). */
Tensor
randomInput(std::size_t rows, std::size_t cols, util::Rng& rng)
{
    Tensor x(rows, cols);
    x.fillUniform(rng, -1.0f, 1.0f);
    return x;
}

// ---------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------

void
checkLinear(std::size_t batch, std::size_t in, std::size_t out,
            uint64_t seed)
{
    util::Rng rng(seed);
    Linear lin(in, out, rng);
    lin.bias.fillUniform(rng, -0.5f, 0.5f);
    Tensor x = randomInput(batch, in, rng);
    Tensor y(batch, out);

    const LossFn loss = [&] {
        lin.forward(x, y);
        return weightedSum(y);
    };

    lin.forward(x, y);
    const Tensor dy = coefTensor(batch, out);
    Tensor dx(batch, in);
    lin.zeroGrad();
    lin.backward(x, dy, dx);

    checkGrads(lin.gradWeight.data(), lin.weight.data(),
               lin.weight.size(), loss, "linear.gradWeight");
    checkGrads(lin.gradBias.data(), lin.bias.data(), lin.bias.size(),
               loss, "linear.gradBias");
    checkGrads(dx.data(), x.data(), x.size(), loss, "linear.dx");
}

TEST(GradCheck, LinearSmall) { checkLinear(3, 5, 4, 11); }
TEST(GradCheck, LinearSingleExample) { checkLinear(1, 2, 7, 12); }
TEST(GradCheck, LinearWide) { checkLinear(2, 9, 3, 13); }

// ---------------------------------------------------------------------
// Mlp (ReLU stack; fixed seeds keep pre-activations away from kinks)
// ---------------------------------------------------------------------

void
checkMlp(std::size_t batch, std::size_t in,
         const std::vector<std::size_t>& dims, uint64_t seed)
{
    util::Rng rng(seed);
    Mlp mlp(in, dims, rng);
    for (Linear& layer : mlp.layers())
        layer.bias.fillUniform(rng, -0.3f, 0.3f);
    Tensor x = randomInput(batch, in, rng);
    Tensor y(batch, dims.back());

    const LossFn loss = [&] {
        mlp.forward(x, y);
        return weightedSum(y);
    };

    mlp.forward(x, y);
    const Tensor dy = coefTensor(batch, dims.back());
    Tensor dx(batch, in);
    mlp.zeroGrad();
    mlp.backward(x, dy, dx);

    for (std::size_t l = 0; l < mlp.layers().size(); ++l) {
        Linear& layer = mlp.layers()[l];
        const std::string tag = "mlp.layer" + std::to_string(l);
        checkGrads(layer.gradWeight.data(), layer.weight.data(),
                   layer.weight.size(), loss, tag + ".gradWeight");
        checkGrads(layer.gradBias.data(), layer.bias.data(),
                   layer.bias.size(), loss, tag + ".gradBias");
    }
    checkGrads(dx.data(), x.data(), x.size(), loss, "mlp.dx");
}

TEST(GradCheck, MlpTwoLayer) { checkMlp(3, 6, {5, 4}, 21); }
TEST(GradCheck, MlpThreeLayer) { checkMlp(2, 4, {6, 5, 3}, 22); }

// ---------------------------------------------------------------------
// EmbeddingBag (sum and mean pooling, duplicate rows, empty example)
// ---------------------------------------------------------------------

/** 4-example batch: duplicates within and across bags, one empty bag. */
SparseBatch
lookupBatch()
{
    SparseBatch batch;
    batch.indices = {0, 3, 3, 1, 4, 0, 2};
    batch.offsets = {0, 3, 5, 5, 7};
    return batch;
}

void
checkEmbeddingBag(Pooling pooling, uint64_t seed)
{
    constexpr uint64_t kRows = 6;
    constexpr std::size_t kDim = 3;
    util::Rng rng(seed);
    EmbeddingBag bag(kRows, kDim, rng, pooling);
    const SparseBatch batch = lookupBatch();
    Tensor out(batch.batchSize(), kDim);

    const LossFn loss = [&] {
        bag.forward(batch, out);
        return weightedSum(out);
    };

    bag.forward(batch, out);
    const Tensor dy = coefTensor(batch.batchSize(), kDim);
    SparseGrad grad;
    bag.backward(batch, dy, grad);

    // Analytic gradient of the full table: scatter the deduplicated
    // per-row grads; untouched rows must have exactly zero gradient.
    Tensor full(static_cast<std::size_t>(kRows), kDim);
    for (std::size_t r = 0; r < grad.rows.size(); ++r) {
        for (std::size_t j = 0; j < kDim; ++j)
            full.at(static_cast<std::size_t>(grad.rows[r]), j) =
                grad.values.at(r, j);
    }
    checkGrads(full.data(), bag.table.data(), bag.table.size(), loss,
               pooling == Pooling::Sum ? "embsum.table" : "embmean.table");
}

TEST(GradCheck, EmbeddingBagSum)
{
    checkEmbeddingBag(Pooling::Sum, 31);
}

TEST(GradCheck, EmbeddingBagMean)
{
    checkEmbeddingBag(Pooling::Mean, 32);
}

// ---------------------------------------------------------------------
// QuantizedEmbeddingBag Fp32 dequant path: the compressed-forward of an
// Fp32 passthrough must carry exactly the master table's gradients
// (perturbing the master, re-quantizing, and re-running the compressed
// forward differentiates the quantizeFrom + dequant pipeline).
// ---------------------------------------------------------------------

TEST(GradCheck, QuantizedEmbeddingFp32DequantPath)
{
    constexpr uint64_t kRows = 5;
    constexpr std::size_t kDim = 4;
    util::Rng rng(41);
    EmbeddingBag master(kRows, kDim, rng, Pooling::Sum);
    QuantizedEmbeddingBag quantized(master, EmbeddingPrecision::Fp32);
    const SparseBatch batch = lookupBatch();
    Tensor out(batch.batchSize(), kDim);

    const LossFn loss = [&] {
        quantized.quantizeFrom(master);
        quantized.forward(batch, out);
        return weightedSum(out);
    };

    // Fp32 passthrough must reproduce the master forward bit-exactly.
    Tensor master_out(batch.batchSize(), kDim);
    master.forward(batch, master_out);
    quantized.forward(batch, out);
    for (std::size_t k = 0; k < out.size(); ++k)
        ASSERT_EQ(out.data()[k], master_out.data()[k]);

    const Tensor dy = coefTensor(batch.batchSize(), kDim);
    SparseGrad grad;
    master.backward(batch, dy, grad);
    Tensor full(static_cast<std::size_t>(kRows), kDim);
    for (std::size_t r = 0; r < grad.rows.size(); ++r) {
        for (std::size_t j = 0; j < kDim; ++j)
            full.at(static_cast<std::size_t>(grad.rows[r]), j) =
                grad.values.at(r, j);
    }
    checkGrads(full.data(), master.table.data(), master.table.size(),
               loss, "quantized.fp32.table");
}

// ---------------------------------------------------------------------
// Interactions
// ---------------------------------------------------------------------

TEST(GradCheck, CatInteraction)
{
    constexpr std::size_t kBatch = 3, kDenseW = 4, kDim = 3, kSparse = 2;
    util::Rng rng(51);
    Tensor dense = randomInput(kBatch, kDenseW, rng);
    std::vector<Tensor> embs;
    for (std::size_t s = 0; s < kSparse; ++s)
        embs.push_back(randomInput(kBatch, kDim, rng));
    CatInteraction cat;
    Tensor out(kBatch, CatInteraction::outWidth(kDenseW, kSparse, kDim));

    const LossFn loss = [&] {
        cat.forward(dense, embs, out);
        return weightedSum(out);
    };

    cat.forward(dense, embs, out);
    const Tensor dy = coefTensor(out.rows(), out.cols());
    Tensor d_dense(kBatch, kDenseW);
    std::vector<Tensor> d_embs(kSparse, Tensor(kBatch, kDim));
    cat.backward(dense, embs, dy, d_dense, d_embs);

    checkGrads(d_dense.data(), dense.data(), dense.size(), loss,
               "cat.d_dense");
    for (std::size_t s = 0; s < kSparse; ++s)
        checkGrads(d_embs[s].data(), embs[s].data(), embs[s].size(),
                   loss, "cat.d_emb" + std::to_string(s));
}

TEST(GradCheck, DotInteraction)
{
    constexpr std::size_t kBatch = 3, kDim = 4, kSparse = 3;
    util::Rng rng(52);
    Tensor dense = randomInput(kBatch, kDim, rng);
    std::vector<Tensor> embs;
    for (std::size_t s = 0; s < kSparse; ++s)
        embs.push_back(randomInput(kBatch, kDim, rng));
    DotInteraction dot;
    Tensor out(kBatch, DotInteraction::outWidth(kSparse, kDim));

    const LossFn loss = [&] {
        dot.forward(dense, embs, out);
        return weightedSum(out);
    };

    dot.forward(dense, embs, out);
    const Tensor dy = coefTensor(out.rows(), out.cols());
    Tensor d_dense(kBatch, kDim);
    std::vector<Tensor> d_embs(kSparse, Tensor(kBatch, kDim));
    dot.backward(dense, embs, dy, d_dense, d_embs);

    checkGrads(d_dense.data(), dense.data(), dense.size(), loss,
               "dot.d_dense");
    for (std::size_t s = 0; s < kSparse; ++s)
        checkGrads(d_embs[s].data(), embs[s].data(), embs[s].size(),
                   loss, "dot.d_emb" + std::to_string(s));
}

// ---------------------------------------------------------------------
// BCE with logits
// ---------------------------------------------------------------------

TEST(GradCheck, BceWithLogits)
{
    constexpr std::size_t kBatch = 6;
    util::Rng rng(61);
    Tensor logits = randomInput(kBatch, 1, rng);
    const std::vector<float> labels = {1, 0, 1, 1, 0, 0};

    const LossFn loss = [&] {
        return bceWithLogitsLoss(logits, labels);
    };

    Tensor d_logits(kBatch, 1);
    const double analytic_loss = bceWithLogits(logits, labels, d_logits);
    EXPECT_NEAR(analytic_loss, loss(), 1e-6);

    checkGrads(d_logits.data(), logits.data(), logits.size(), loss,
               "bce.d_logits");
}

// ---------------------------------------------------------------------
// End-to-end: the assembled Dlrm's dense-parameter gradients against
// central differences of the reference walk's loss.
// ---------------------------------------------------------------------

TEST(GradCheck, DlrmEndToEndDenseParams)
{
    const auto cfg = model::DlrmConfig::tinyReplica(3, 4, 50, 4);
    data::DatasetConfig ds_cfg;
    ds_cfg.num_dense = cfg.num_dense;
    ds_cfg.sparse = cfg.sparse;
    ds_cfg.seed = 71;
    data::SyntheticCtrDataset ds(ds_cfg);
    ds.materialize(64);
    const data::MiniBatch batch = ds.epochBatch(0, 4);

    model::Dlrm dlrm(cfg, 7);
    const LossFn loss = [&] {
        return test::referenceLoss(dlrm, batch);
    };

    dlrm.zeroGrad();
    test::referenceForwardBackward(dlrm, batch);

    // The assembled model stacks two ReLU MLPs, so the loss is only
    // piecewise smooth in its parameters: whenever a +-h probe pushes
    // any pre-activation across its kink, the central difference picks
    // up a small bias the analytic subgradient rightly ignores, at
    // every step size. Individual entries therefore cannot be held to
    // the per-layer tolerance; instead the error *distribution* must
    // be tight — a bug in any backward stage shifts the bulk of the
    // samples, while kink bias only perturbs a thin tail. The
    // per-layer suites above remain exhaustive and strict.
    std::vector<double> errors;
    auto check_entry = [&](float& p, double analytic,
                           const std::string& tag) {
        const double numeric = numericGradAt(p, loss, kStep / 2.0);
        errors.push_back(relErr(analytic, numeric));
        EXPECT_LT(errors.back(), 0.2) << tag;
    };

    // Sample a stride of entries from every dense parameter tensor (the
    // full set is cheap here but samples keep the suite fast).
    auto check_layer = [&](Linear& layer, const std::string& tag) {
        for (std::size_t i = 0; i < layer.weight.size(); i += 3)
            check_entry(layer.weight.data()[i],
                        layer.gradWeight.data()[i],
                        tag + ".weight[" + std::to_string(i) + "]");
        for (std::size_t i = 0; i < layer.bias.size(); i += 2)
            check_entry(layer.bias.data()[i], layer.gradBias.data()[i],
                        tag + ".bias[" + std::to_string(i) + "]");
    };
    for (std::size_t l = 0; l < dlrm.bottomMlp().layers().size(); ++l)
        check_layer(dlrm.bottomMlp().layers()[l],
                    "dlrm.bottom" + std::to_string(l));
    for (std::size_t l = 0; l < dlrm.topMlp().layers().size(); ++l)
        check_layer(dlrm.topMlp().layers()[l],
                    "dlrm.top" + std::to_string(l));

    // Embedding tables: scatter the sparse grads and sample entries.
    for (std::size_t t = 0; t < dlrm.tables().size(); ++t) {
        EmbeddingBag& bag = dlrm.tables()[t];
        const SparseGrad& grad = dlrm.sparseGrads()[t];
        Tensor full(static_cast<std::size_t>(bag.hashSize()),
                    bag.dim());
        for (std::size_t r = 0; r < grad.rows.size(); ++r)
            for (std::size_t j = 0; j < bag.dim(); ++j)
                full.at(static_cast<std::size_t>(grad.rows[r]), j) =
                    grad.values.at(r, j);
        for (std::size_t r = 0; r < grad.rows.size(); ++r) {
            const std::size_t row =
                static_cast<std::size_t>(grad.rows[r]);
            const std::size_t i = row * bag.dim() + (r % bag.dim());
            check_entry(bag.table.data()[i], full.data()[i],
                        "dlrm.table" + std::to_string(t) + "[" +
                            std::to_string(i) + "]");
        }
    }

    ASSERT_GT(errors.size(), 200u);
    std::sort(errors.begin(), errors.end());
    const auto quantile = [&](double q) {
        return errors[static_cast<std::size_t>(
            q * static_cast<double>(errors.size() - 1))];
    };
    EXPECT_LT(quantile(0.5), 1e-3);   // bulk matches tightly
    EXPECT_LT(quantile(0.9), 2e-3);   // kink bias is a thin tail
    EXPECT_LT(quantile(0.99), 5e-2);
}

// ---------------------------------------------------------------------
// Pool-enabled runs: the same checks with a multi-thread global pool.
// The kernels' determinism contract makes parallel gradients bit-equal
// to serial ones, so the identical tolerances must hold.
// ---------------------------------------------------------------------

/** Resizes the global pool for the test, restoring it on scope exit. */
struct ScopedPoolThreads
{
    explicit ScopedPoolThreads(std::size_t threads)
    {
        util::globalThreadPool().resize(threads);
    }
    ~ScopedPoolThreads()
    {
        util::globalThreadPool().resize(util::configuredThreads());
    }
};

TEST(GradCheck, LinearWithThreadPool)
{
    ScopedPoolThreads pool(4);
    checkLinear(3, 5, 4, 11);
}

TEST(GradCheck, MlpWithThreadPool)
{
    ScopedPoolThreads pool(4);
    checkMlp(3, 6, {5, 4}, 21);
}

TEST(GradCheck, EmbeddingBagWithThreadPool)
{
    ScopedPoolThreads pool(4);
    checkEmbeddingBag(Pooling::Sum, 31);
    checkEmbeddingBag(Pooling::Mean, 32);
}

// The wavefront executor, over the plain or the fused graph
// (graph::fusePass: epilogue-fused GEMMs, grouped embedding lookups),
// must produce the exact gradients of the graph-free reference walk —
// bit for bit, at any pool size. The gradients the per-layer suites
// above validate therefore transfer unchanged to the parallel and the
// fused step paths.
void
checkExecutorMatchesReferenceWalk(bool fuse)
{
    const auto cfg = model::DlrmConfig::tinyReplica(3, 4, 50, 4);
    data::DatasetConfig ds_cfg;
    ds_cfg.num_dense = cfg.num_dense;
    ds_cfg.sparse = cfg.sparse;
    ds_cfg.seed = 71;
    data::SyntheticCtrDataset ds(ds_cfg);
    ds.materialize(64);
    const data::MiniBatch batch = ds.epochBatch(0, 8);

    auto graph = graph::buildModelStepGraph(cfg);
    if (fuse)
        graph::fusePass(graph);
    const train::GraphExecutor executor(graph);
    for (const std::size_t threads : {1u, 8u}) {
        ScopedPoolThreads pool(threads);
        const std::string tag = std::string(fuse ? "fused" : "plain") +
            " @" + std::to_string(threads) + "t";
        model::Dlrm reference(cfg, 7);
        model::Dlrm stepped(cfg, 7);
        reference.zeroGrad();
        stepped.zeroGrad();
        const double a = test::referenceForwardBackward(reference, batch);
        const double b = executor.runStep(stepped, batch);
        EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
            << tag << ": " << a << " vs " << b;

        auto check_layers = [&](Mlp& fa, Mlp& fb,
                                const std::string& mlp) {
            ASSERT_EQ(fa.layers().size(), fb.layers().size());
            for (std::size_t l = 0; l < fa.layers().size(); ++l) {
                Linear& x = fa.layers()[l];
                Linear& y = fb.layers()[l];
                EXPECT_EQ(std::memcmp(x.gradWeight.data(),
                                      y.gradWeight.data(),
                                      x.gradWeight.size() *
                                          sizeof(float)),
                          0)
                    << mlp << l << " " << tag;
                EXPECT_EQ(std::memcmp(x.gradBias.data(),
                                      y.gradBias.data(),
                                      x.gradBias.size() *
                                          sizeof(float)),
                          0)
                    << mlp << l << " " << tag;
            }
        };
        check_layers(reference.bottomMlp(), stepped.bottomMlp(),
                     "bottom");
        check_layers(reference.topMlp(), stepped.topMlp(), "top");

        ASSERT_EQ(reference.sparseGrads().size(),
                  stepped.sparseGrads().size());
        for (std::size_t t = 0; t < reference.sparseGrads().size();
             ++t) {
            const SparseGrad& x = reference.sparseGrads()[t];
            const SparseGrad& y = stepped.sparseGrads()[t];
            ASSERT_EQ(x.rows, y.rows) << "table " << t << " " << tag;
            EXPECT_EQ(std::memcmp(x.values.data(), y.values.data(),
                                  x.values.size() * sizeof(float)),
                      0)
                << "table " << t << " " << tag;
        }
    }
}

TEST(GradCheck, ExecutorGradientsMatchFusedForwardBackward)
{
    checkExecutorMatchesReferenceWalk(false);
}

TEST(GradCheck, FusedGraphGradientsMatchForwardBackward)
{
    checkExecutorMatchesReferenceWalk(true);
}

// Central differences straight through the fully fused graph: the
// analytic gradients below come from the fused executor (backward-fused
// GEMMs, flatten-fused interaction, grouped lookups), probed against
// numeric differences of the loss. Complements the bitwise suites —
// this one would catch a fused backward that is merely self-consistent
// with an equally wrong unfused reference.
TEST(GradCheck, FusedGraphEndToEndCentralDifference)
{
    const auto cfg = model::DlrmConfig::tinyReplica(3, 4, 50, 4);
    data::DatasetConfig ds_cfg;
    ds_cfg.num_dense = cfg.num_dense;
    ds_cfg.sparse = cfg.sparse;
    ds_cfg.seed = 71;
    data::SyntheticCtrDataset ds(ds_cfg);
    ds.materialize(64);
    const data::MiniBatch batch = ds.epochBatch(0, 4);

    auto graph = graph::buildModelStepGraph(cfg);
    graph::fusePass(graph);
    const train::GraphExecutor executor(graph);

    model::Dlrm dlrm(cfg, 7);
    const LossFn loss = [&] {
        return test::referenceLoss(dlrm, batch);
    };
    dlrm.zeroGrad();
    executor.runStep(dlrm, batch);

    // Same piecewise-smoothness caveat as DlrmEndToEndDenseParams: the
    // stacked ReLU kinks bias a thin tail of the central differences,
    // so the error distribution is held to quantile bounds.
    std::vector<double> errors;
    auto check_entry = [&](float& p, double analytic,
                           const std::string& tag) {
        const double numeric = numericGradAt(p, loss, kStep / 2.0);
        errors.push_back(relErr(analytic, numeric));
        EXPECT_LT(errors.back(), 0.2) << tag;
    };
    auto check_layer = [&](Linear& layer, const std::string& tag) {
        for (std::size_t i = 0; i < layer.weight.size(); i += 3)
            check_entry(layer.weight.data()[i],
                        layer.gradWeight.data()[i],
                        tag + ".weight[" + std::to_string(i) + "]");
        for (std::size_t i = 0; i < layer.bias.size(); i += 2)
            check_entry(layer.bias.data()[i], layer.gradBias.data()[i],
                        tag + ".bias[" + std::to_string(i) + "]");
    };
    for (std::size_t l = 0; l < dlrm.bottomMlp().layers().size(); ++l)
        check_layer(dlrm.bottomMlp().layers()[l],
                    "fused.bottom" + std::to_string(l));
    for (std::size_t l = 0; l < dlrm.topMlp().layers().size(); ++l)
        check_layer(dlrm.topMlp().layers()[l],
                    "fused.top" + std::to_string(l));

    for (std::size_t t = 0; t < dlrm.tables().size(); ++t) {
        EmbeddingBag& bag = dlrm.tables()[t];
        const SparseGrad& grad = dlrm.sparseGrads()[t];
        for (std::size_t r = 0; r < grad.rows.size(); ++r) {
            const std::size_t row =
                static_cast<std::size_t>(grad.rows[r]);
            const std::size_t j = r % bag.dim();
            check_entry(bag.table.data()[row * bag.dim() + j],
                        grad.values.at(r, j),
                        "fused.table" + std::to_string(t) + "[" +
                            std::to_string(row) + "," +
                            std::to_string(j) + "]");
        }
    }

    ASSERT_GT(errors.size(), 200u);
    std::sort(errors.begin(), errors.end());
    const auto quantile = [&](double q) {
        return errors[static_cast<std::size_t>(
            q * static_cast<double>(errors.size() - 1))];
    };
    EXPECT_LT(quantile(0.5), 1e-3);
    EXPECT_LT(quantile(0.9), 2e-3);
    EXPECT_LT(quantile(0.99), 5e-2);
}

// ---------------------------------------------------------------------
// Mutation spot-check: a corrupted analytic gradient must be rejected,
// proving the checker has teeth (a backward bug cannot pass silently).
// ---------------------------------------------------------------------

TEST(GradCheck, CorruptedGradientIsRejected)
{
    util::Rng rng(81);
    Linear lin(4, 3, rng);
    lin.bias.fillUniform(rng, -0.5f, 0.5f);
    Tensor x = randomInput(2, 4, rng);
    Tensor y(2, 3);

    const LossFn loss = [&] {
        lin.forward(x, y);
        return weightedSum(y);
    };

    lin.forward(x, y);
    const Tensor dy = coefTensor(2, 3);
    Tensor dx(2, 4);
    lin.zeroGrad();
    lin.backward(x, dy, dx);

    // Mutate one gradient entry: worst rel err must exceed the
    // tolerance by a wide margin (EXPECT_NONFATAL_FAILURE captures the
    // checker's own EXPECT_LT failure).
    Tensor mutated = lin.gradWeight;
    mutated.data()[5] = mutated.data()[5] * 1.05f + 0.1f;
    double worst = 0.0;
    EXPECT_NONFATAL_FAILURE(
        worst = checkGrads(mutated.data(), lin.weight.data(),
                           mutated.size(), loss, "mutated"),
        "mutated");
    EXPECT_GT(worst, kTol);

    // Sanity: the uncorrupted gradient passes with the same machinery.
    const double clean_worst =
        checkGrads(lin.gradWeight.data(), lin.weight.data(),
                   lin.gradWeight.size(), loss, "clean");
    EXPECT_LT(clean_worst, kTol);
}

} // namespace
} // namespace recsim::nn
