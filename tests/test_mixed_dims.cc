/**
 * @file
 * Tests for mixed-dimension embeddings (the paper's memory-efficiency
 * citation [17]): accounting, the popularity rule, functional training
 * through the projection layers, and the capacity effect.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "cost/iteration_model.h"
#include "data/dataset.h"
#include "model/dlrm.h"
#include "nn/optimizer.h"
#include "placement/placement.h"
#include "train/easgd.h"
#include "train/hogwild.h"
#include "train/trainer.h"
#include "util/units.h"

#include "reference_walk.h"

namespace recsim::model {
namespace {

using placement::EmbeddingPlacement;

DlrmConfig
mixedTiny()
{
    auto cfg = DlrmConfig::tinyReplica(6, 8, 400, 16);
    cfg.sparse[0].dim_override = 4;
    cfg.sparse[1].dim_override = 8;
    // Give the overridden tables distinct popularity for rule tests.
    cfg.sparse[0].mean_length = 1.0;
    return cfg;
}

TEST(MixedDims, EffectiveDimDefaultsToModelDim)
{
    data::SparseFeatureSpec spec;
    EXPECT_EQ(spec.effectiveDim(64), 64u);
    spec.dim_override = 8;
    EXPECT_EQ(spec.effectiveDim(64), 8u);
}

TEST(MixedDims, EmbeddingBytesShrink)
{
    auto base = DlrmConfig::tinyReplica(4, 8, 1000, 16);
    const double full = base.embeddingBytes();
    base.sparse[0].dim_override = 4;
    const double mixed = base.embeddingBytes();
    // One of four tables shrinks 4x: total drops by 3/16.
    EXPECT_NEAR(mixed, full * (1.0 - 3.0 / 16.0), 1.0);
}

TEST(MixedDims, MlpParamsIncludeProjections)
{
    auto base = DlrmConfig::tinyReplica(4, 8, 1000, 16);
    const std::size_t without = base.mlpParams();
    base.sparse[0].dim_override = 4;
    EXPECT_EQ(base.mlpParams(), without + 4u * 16 + 16);
}

TEST(MixedDims, FootprintUsesPerTableDims)
{
    auto base = DlrmConfig::tinyReplica(2, 8, 1000, 16);
    const auto full = base.footprint();
    base.sparse[0].dim_override = 4;
    const auto mixed = base.footprint();
    EXPECT_LT(mixed.embedding_bytes, full.embedding_bytes);
    EXPECT_LT(mixed.pooled_bytes, full.pooled_bytes);
    EXPECT_GT(mixed.mlp_flops, full.mlp_flops);  // projection cost
}

TEST(MixedDims, PopularityRuleShrinksTail)
{
    auto cfg = DlrmConfig::testSuite(64, 4, 1000, 64, 2, 8.0, 0);
    cfg.sparse[0].mean_length = 32.0;  // hot
    cfg.sparse[1].mean_length = 8.0;
    cfg.sparse[2].mean_length = 2.0;
    cfg.sparse[3].mean_length = 0.5;   // cold
    const auto mixed = applyMixedDimensions(cfg, 0.5, 4);
    EXPECT_EQ(mixed.sparse[0].dim_override, 0u);  // hottest keeps full
    EXPECT_GT(mixed.sparse[1].effectiveDim(64),
              mixed.sparse[2].effectiveDim(64));
    EXPECT_GE(mixed.sparse[3].effectiveDim(64), 4u);
    // Dims are powers of two.
    for (const auto& spec : mixed.sparse) {
        const std::size_t d = spec.effectiveDim(64);
        EXPECT_EQ(d & (d - 1), 0u) << d;
    }
}

TEST(MixedDims, AlphaZeroIsIdentity)
{
    const auto cfg = DlrmConfig::m1Prod();
    const auto same = applyMixedDimensions(cfg, 0.0);
    for (const auto& spec : same.sparse)
        EXPECT_EQ(spec.dim_override, 0u);
}

TEST(MixedDims, ForwardShapesUnchanged)
{
    const auto cfg = mixedTiny();
    Dlrm model(cfg, 1);
    data::DatasetConfig ds_cfg;
    ds_cfg.num_dense = cfg.num_dense;
    ds_cfg.sparse = cfg.sparse;
    ds_cfg.seed = 5;
    data::SyntheticCtrDataset ds(ds_cfg);
    const auto batch = ds.nextBatch(16);
    tensor::Tensor logits;
    model.forward(batch, logits);
    EXPECT_EQ(logits.rows(), 16u);
    EXPECT_EQ(logits.cols(), 1u);
}

TEST(MixedDims, TrainingLearnsThroughProjections)
{
    const auto cfg = mixedTiny();
    Dlrm model(cfg, 2);
    data::DatasetConfig ds_cfg;
    ds_cfg.num_dense = cfg.num_dense;
    ds_cfg.sparse = cfg.sparse;
    ds_cfg.seed = 6;
    data::SyntheticCtrDataset ds(ds_cfg);
    ds.materialize(12000);
    const auto eval = ds.epochBatch(10000, 2000);
    const double before =
        test::referenceNormalizedEntropy(model, eval);

    nn::Adagrad opt(0.02f);
    for (std::size_t i = 0; i < 150; ++i) {
        const auto batch = ds.epochBatch(i * 64, 64);
        test::referenceForwardBackward(model, batch);
        model.step(opt);
    }
    EXPECT_LT(test::referenceNormalizedEntropy(model, eval), before);
}

TEST(MixedDims, ProjectionGradCheck)
{
    // Every projection's analytic weight and bias grads against central
    // differences of the loss, held to GradCheck.DlrmEndToEndDenseParams'
    // bounds: each sampled entry within 0.2, and the error quantiles
    // tight (the stacked ReLU kinks bias only a thin tail).
    const auto cfg = mixedTiny();
    Dlrm model(cfg, 3);
    data::DatasetConfig ds_cfg;
    ds_cfg.num_dense = cfg.num_dense;
    ds_cfg.sparse = cfg.sparse;
    ds_cfg.seed = 7;
    data::SyntheticCtrDataset ds(ds_cfg);
    const auto batch = ds.nextBatch(8);

    model.zeroGrad();
    test::referenceForwardBackward(model, batch);

    // denseLayers() lists the MLP layers, then the projections
    // (proj.t0 and proj.t1 in mixedTiny).
    const auto& layers = model.denseLayers();
    const std::size_t mlp_layers = model.bottomMlp().layers().size() +
        model.topMlp().layers().size();
    ASSERT_EQ(layers.size(), mlp_layers + 2);

    constexpr double kStep = 5e-3;
    std::vector<double> errors;
    auto check = [&](float& p, double analytic, const std::string& tag) {
        const float orig = p;
        p = static_cast<float>(orig + kStep);
        const double up = test::referenceLoss(model, batch);
        p = static_cast<float>(orig - kStep);
        const double down = test::referenceLoss(model, batch);
        p = orig;
        const double numeric = (up - down) / (2.0 * kStep);
        const double scale =
            std::max({std::fabs(analytic), std::fabs(numeric), 0.25});
        errors.push_back(std::fabs(analytic - numeric) / scale);
        EXPECT_LT(errors.back(), 0.2) << tag;
    };
    for (std::size_t k = mlp_layers; k < layers.size(); ++k) {
        nn::Linear& proj = *layers[k];
        const std::string tag = "proj" + std::to_string(k - mlp_layers);
        for (std::size_t i = 0; i < proj.weight.size(); i += 3)
            check(proj.weight.data()[i], proj.gradWeight.data()[i],
                  tag + ".weight[" + std::to_string(i) + "]");
        for (std::size_t i = 0; i < proj.bias.size(); i += 2)
            check(proj.bias.data()[i], proj.gradBias.data()[i],
                  tag + ".bias[" + std::to_string(i) + "]");
    }

    ASSERT_GT(errors.size(), 60u);
    std::sort(errors.begin(), errors.end());
    const auto quantile = [&](double q) {
        return errors[static_cast<std::size_t>(
            q * static_cast<double>(errors.size() - 1))];
    };
    EXPECT_LT(quantile(0.5), 1e-3);
    EXPECT_LT(quantile(0.9), 2e-3);
    EXPECT_LT(quantile(0.99), 5e-2);
}

// One asynchronous update at one worker must move every shared dense
// tensor, the projections' included, by -lr * grad (then, for EASGD,
// average it with the center). The expected model applies the
// reference walk's grads with plain SGD, so an eval that differs by a
// bit means some shared tensor moved differently, or not at all.
// ShadowSync's dense step is EASGD's; its shadow thread's pass count
// is timing-dependent, so it has no exact expected model.
TEST(MixedDims, OneAsyncUpdateTrainsEveryDenseLayer)
{
    const auto cfg = mixedTiny();
    constexpr std::size_t kBatch = 32;
    constexpr std::size_t kEval = 256;
    constexpr float kLr = 0.05f;
    constexpr float kAlpha = 0.5f;
    data::DatasetConfig ds_cfg;
    ds_cfg.num_dense = cfg.num_dense;
    ds_cfg.sparse = cfg.sparse;
    ds_cfg.seed = 8;
    data::SyntheticCtrDataset ds(ds_cfg);
    // The training split is one batch: one step per worker.
    ds.materialize(kBatch + kEval);

    Dlrm stepped(cfg, 4);
    test::referenceForwardBackward(stepped, ds.epochBatch(0, kBatch));
    stepped.step(nn::Sgd(kLr));
    train::TrainResult expected;
    train::evaluateModel(stepped, ds, kEval, expected);

    train::TrainConfig base;
    base.batch_size = kBatch;
    base.learning_rate = kLr;
    base.model_seed = 4;
    train::HogwildConfig hogwild;
    hogwild.base = base;
    hogwild.num_threads = 1;
    const auto h = train::trainHogwild(cfg, ds, hogwild, kEval);
    ASSERT_EQ(h.steps, 1u);
    EXPECT_EQ(h.eval_loss, expected.eval_loss);
    EXPECT_EQ(h.eval_ne, expected.eval_ne);

    // An EASGD sync right after the step: center c moves to
    // c + alpha * (x - c), x being the stepped replica's tensor.
    Dlrm initial(cfg, 4);
    const auto c = initial.denseParams();
    const auto x = stepped.denseParams();
    for (std::size_t i = 0; i < c.size(); ++i) {
        for (std::size_t j = 0; j < c[i]->size(); ++j) {
            const float diff = x[i]->data()[j] - c[i]->data()[j];
            x[i]->data()[j] = c[i]->data()[j] + kAlpha * diff;
        }
    }
    train::evaluateModel(stepped, ds, kEval, expected);
    train::EasgdConfig easgd;
    easgd.base = base;
    easgd.num_workers = 1;
    easgd.sync_period = 1;
    easgd.elasticity = kAlpha;
    const auto e = train::trainEasgd(cfg, ds, easgd, kEval);
    ASSERT_EQ(e.steps, 1u);
    EXPECT_EQ(e.eval_loss, expected.eval_loss);
    EXPECT_EQ(e.eval_ne, expected.eval_ne);
}

TEST(MixedDims, MakesM3FitBigBasin)
{
    // Popularity-scaled dims shrink M3 enough to change its placement
    // story, complementing quantization.
    const auto m3 = DlrmConfig::m3Prod();
    const auto mixed = applyMixedDimensions(m3, 0.6, 8);
    EXPECT_LT(mixed.embeddingBytes(), m3.embeddingBytes() * 0.7);

    const auto plan = placement::planPlacement(
        EmbeddingPlacement::GpuMemory, mixed, hw::Platform::bigBasin());
    const auto full_plan = placement::planPlacement(
        EmbeddingPlacement::GpuMemory, m3, hw::Platform::bigBasin());
    EXPECT_FALSE(full_plan.feasible);
    // Whether mixed fits depends on alpha; at minimum it must shrink.
    EXPECT_LT(plan.resident_bytes + 1.0,
              full_plan.feasible ? 1e18 : m3.embeddingBytes() * 1.25);
}

TEST(MixedDims, CostModelSeesSmallerTraffic)
{
    const auto m3 = DlrmConfig::m3Prod();
    const auto mixed = applyMixedDimensions(m3, 0.6, 8);
    auto sys = cost::SystemConfig::zionSetup(
        EmbeddingPlacement::HostMemory, 800);
    const double full =
        cost::IterationModel(m3, sys).estimate().throughput;
    const double thin =
        cost::IterationModel(mixed, sys).estimate().throughput;
    EXPECT_GT(thin, full);
}

} // namespace
} // namespace recsim::model
