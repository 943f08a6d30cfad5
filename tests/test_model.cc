/**
 * @file
 * Unit tests for recsim::model: Table II encodings, footprint
 * accounting, and the functional DLRM (shapes, grad check, learning).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "data/dataset.h"
#include "model/config.h"
#include "model/dlrm.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "util/units.h"

#include "reference_walk.h"

namespace recsim::model {
namespace {

TEST(Config, M1MatchesTableII)
{
    const auto m1 = DlrmConfig::m1Prod();
    EXPECT_EQ(m1.numSparse(), 30u);
    EXPECT_EQ(m1.num_dense, 800u);
    EXPECT_EQ(m1.bottom_mlp, std::vector<std::size_t>{512});
    EXPECT_EQ(m1.top_mlp, (std::vector<std::size_t>{512, 512, 512}));
    // "Embedding Size [GB]: tens" with mean lookups 28 per table.
    const double gb = m1.embeddingBytes() / util::kGB;
    EXPECT_GT(gb, 10.0);
    EXPECT_LT(gb, 100.0);
    EXPECT_NEAR(m1.meanLookupsPerExample() / 30.0, 28.0, 2.0);
}

TEST(Config, M2MatchesTableII)
{
    const auto m2 = DlrmConfig::m2Prod();
    EXPECT_EQ(m2.numSparse(), 13u);
    EXPECT_EQ(m2.num_dense, 504u);
    EXPECT_EQ(m2.bottom_mlp, std::vector<std::size_t>{1024});
    const double gb = m2.embeddingBytes() / util::kGB;
    EXPECT_GT(gb, 10.0);
    EXPECT_LT(gb, 100.0);
    EXPECT_NEAR(m2.meanLookupsPerExample() / 13.0, 17.0, 2.0);
}

TEST(Config, M3MatchesTableII)
{
    const auto m3 = DlrmConfig::m3Prod();
    EXPECT_EQ(m3.numSparse(), 127u);
    EXPECT_EQ(m3.num_dense, 809u);
    EXPECT_EQ(m3.top_mlp,
              (std::vector<std::size_t>{512, 256, 512, 256, 512}));
    // "Embedding Size [GB]: hundreds".
    const double gb = m3.embeddingBytes() / util::kGB;
    EXPECT_GT(gb, 100.0);
    EXPECT_LT(gb, 1000.0);
    EXPECT_NEAR(m3.meanLookupsPerExample() / 127.0, 49.0, 4.0);
}

TEST(Config, BottomDimsAppendEmbeddingProjection)
{
    auto cfg = DlrmConfig::m1Prod();
    const auto dims = cfg.bottomDims();
    ASSERT_EQ(dims.size(), 2u);
    EXPECT_EQ(dims.back(), cfg.emb_dim);
    cfg.interaction = nn::InteractionKind::Concat;
    EXPECT_EQ(cfg.bottomDims().size(), 1u);
}

TEST(Config, TopDimsAppendLogitLayer)
{
    const auto cfg = DlrmConfig::m1Prod();
    EXPECT_EQ(cfg.topDims().back(), 1u);
    EXPECT_EQ(cfg.topDims().size(), cfg.top_mlp.size() + 1);
}

TEST(Config, InteractionWidthDot)
{
    auto cfg = DlrmConfig::testSuite(64, 4, 1000);
    // F = 5 vectors -> 10 pairs + emb_dim passthrough.
    EXPECT_EQ(cfg.interactionWidth(), cfg.emb_dim + 10u);
}

TEST(Config, InteractionWidthConcat)
{
    auto cfg = DlrmConfig::testSuite(64, 4, 1000);
    cfg.interaction = nn::InteractionKind::Concat;
    EXPECT_EQ(cfg.interactionWidth(),
              cfg.bottomDims().back() + 4u * cfg.emb_dim);
}

TEST(Config, MlpParamsCountsBothStacks)
{
    DlrmConfig cfg;
    cfg.num_dense = 10;
    cfg.emb_dim = 4;
    cfg.bottom_mlp = {8};
    cfg.top_mlp = {6};
    cfg.interaction = nn::InteractionKind::Concat;
    cfg.sparse.resize(2);
    for (auto& s : cfg.sparse)
        s.hash_size = 100;
    // bottom: 10*8+8; top input = 8 + 2*4 = 16: 16*6+6, logit 6*1+1.
    EXPECT_EQ(cfg.mlpParams(), 10u * 8 + 8 + 16 * 6 + 6 + 6 + 1);
}

TEST(Config, FootprintScalesWithFeatures)
{
    const auto small = DlrmConfig::testSuite(64, 4, 1000);
    const auto more_dense = DlrmConfig::testSuite(512, 4, 1000);
    const auto more_sparse = DlrmConfig::testSuite(64, 64, 1000);
    EXPECT_GT(more_dense.footprint().mlp_flops,
              small.footprint().mlp_flops);
    EXPECT_GT(more_sparse.footprint().embedding_bytes,
              small.footprint().embedding_bytes);
    EXPECT_GT(more_sparse.footprint().interaction_flops,
              small.footprint().interaction_flops);
}

TEST(Config, FootprintEmbeddingBytesFormula)
{
    auto cfg = DlrmConfig::testSuite(64, 2, 1000, 64, 1, 4.0, 0);
    const auto fp = cfg.footprint();
    EXPECT_DOUBLE_EQ(fp.embedding_lookups, 8.0);
    EXPECT_DOUBLE_EQ(fp.embedding_bytes,
                     8.0 * static_cast<double>(cfg.emb_dim) * 4.0);
    EXPECT_DOUBLE_EQ(fp.pooled_bytes,
                     2.0 * static_cast<double>(cfg.emb_dim) * 4.0);
}

TEST(Config, SummaryMentionsName)
{
    const auto cfg = DlrmConfig::m1Prod();
    EXPECT_NE(cfg.summary().find("M1_prod"), std::string::npos);
}

TEST(Config, MlpDimsToString)
{
    EXPECT_EQ(mlpDimsToString({512, 256, 512}), "512-256-512");
    EXPECT_EQ(mlpDimsToString({}), "-");
}

data::DatasetConfig
datasetFor(const DlrmConfig& cfg, uint64_t seed = 11)
{
    data::DatasetConfig ds;
    ds.num_dense = cfg.num_dense;
    ds.sparse = cfg.sparse;
    ds.seed = seed;
    return ds;
}

TEST(Dlrm, ForwardShapes)
{
    const auto cfg = DlrmConfig::tinyReplica();
    Dlrm model(cfg, 1);
    data::SyntheticCtrDataset ds(datasetFor(cfg));
    const auto batch = ds.nextBatch(32);
    tensor::Tensor logits;
    model.forward(batch, logits);
    EXPECT_EQ(logits.rows(), 32u);
    EXPECT_EQ(logits.cols(), 1u);
}

TEST(Dlrm, DeterministicForSeed)
{
    const auto cfg = DlrmConfig::tinyReplica();
    Dlrm a(cfg, 5), b(cfg, 5);
    data::SyntheticCtrDataset ds(datasetFor(cfg));
    const auto batch = ds.nextBatch(8);
    tensor::Tensor la, lb;
    a.forward(batch, la);
    b.forward(batch, lb);
    EXPECT_LT(tensor::maxAbsDiff(la, lb), 1e-9);
}

TEST(Dlrm, ForwardBackwardReturnsFiniteLoss)
{
    const auto cfg = DlrmConfig::tinyReplica();
    Dlrm model(cfg, 1);
    data::SyntheticCtrDataset ds(datasetFor(cfg));
    const auto batch = ds.nextBatch(16);
    const double loss = test::referenceForwardBackward(model, batch);
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(loss, 0.0);
    // Sparse grads were produced for touched tables.
    std::size_t touched = 0;
    for (const auto& g : model.sparseGrads())
        touched += !g.rows.empty();
    EXPECT_GT(touched, 0u);
}

TEST(Dlrm, SgdTrainingReducesLoss)
{
    const auto cfg = DlrmConfig::tinyReplica(4, 8, 500, 8);
    Dlrm model(cfg, 1);
    data::SyntheticCtrDataset ds(datasetFor(cfg));
    ds.materialize(4096);
    nn::Sgd opt(0.05f);

    double first_losses = 0.0, last_losses = 0.0;
    const std::size_t iters = 120;
    for (std::size_t i = 0; i < iters; ++i) {
        const auto batch = ds.epochBatch((i * 64) % 3840, 64);
        const double loss = test::referenceForwardBackward(model, batch);
        model.step(opt);
        if (i < 10)
            first_losses += loss;
        if (i >= iters - 10)
            last_losses += loss;
    }
    EXPECT_LT(last_losses, first_losses * 0.98);
}

TEST(Dlrm, AdagradTrainingReducesNe)
{
    const auto cfg = DlrmConfig::tinyReplica(4, 8, 500, 8);
    Dlrm model(cfg, 2);
    data::SyntheticCtrDataset ds(datasetFor(cfg, 21));
    ds.materialize(16384);
    const auto eval = ds.epochBatch(14000, 2000);
    const double ne_before =
        test::referenceNormalizedEntropy(model, eval);

    nn::Adagrad opt(0.02f);
    for (std::size_t i = 0; i < 200; ++i) {
        const auto batch = ds.epochBatch(i * 64, 64);
        test::referenceForwardBackward(model, batch);
        model.step(opt);
    }
    const double ne_after = test::referenceNormalizedEntropy(model, eval);
    EXPECT_LT(ne_after, ne_before);
    EXPECT_LT(ne_after, 1.0);  // beats the base-rate predictor
}

TEST(Dlrm, DenseParamsExposesAllLayers)
{
    const auto cfg = DlrmConfig::tinyReplica();
    Dlrm model(cfg, 1);
    const auto params = model.denseParams();
    // bottom (2 hidden + projection) + top (2 hidden + logit) layers,
    // weight + bias each.
    EXPECT_EQ(params.size(), 2u * (3 + 3));
    std::size_t total = 0;
    for (const auto* p : params)
        total += p->size();
    EXPECT_EQ(total, model.numDenseParams());
}

TEST(Dlrm, GradCheckEndToEnd)
{
    // Numerical gradient of the full model loss wrt a bottom-MLP weight
    // and an embedding row.
    auto cfg = DlrmConfig::tinyReplica(2, 4, 50, 4);
    Dlrm model(cfg, 3);
    data::SyntheticCtrDataset ds(datasetFor(cfg, 31));
    const auto batch = ds.nextBatch(8);

    model.zeroGrad();
    test::referenceForwardBackward(model, batch);

    auto loss_fn = [&] { return test::referenceLoss(model, batch); };

    // FP32 forward + ReLU kinks make individual coordinates noisy;
    // require the bulk of sampled coordinates to agree and the overall
    // direction (cosine similarity) to be near 1.
    auto& layer = model.bottomMlp().layers()[0];
    std::size_t checked = 0, within = 0;
    double dot = 0.0, a2 = 0.0, b2 = 0.0;
    for (std::size_t i = 0; i < layer.weight.size(); i += 7) {
        const float saved = layer.weight.data()[i];
        const float eps = 1e-2f;
        layer.weight.data()[i] = saved + eps;
        const double plus = loss_fn();
        layer.weight.data()[i] = saved - eps;
        const double minus = loss_fn();
        layer.weight.data()[i] = saved;
        const double numeric = (plus - minus) / (2.0 * eps);
        const double analytic = layer.gradWeight.data()[i];
        ++checked;
        within += std::abs(analytic - numeric) <
            std::max(5e-3, 0.2 * std::abs(numeric));
        dot += analytic * numeric;
        a2 += analytic * analytic;
        b2 += numeric * numeric;
    }
    ASSERT_GT(checked, 20u);
    EXPECT_GT(static_cast<double>(within) /
                  static_cast<double>(checked),
              0.85);
    EXPECT_GT(dot / std::sqrt(a2 * b2), 0.995);
}

TEST(DlrmDeath, OversizedConfigIsFatal)
{
    const auto m3 = DlrmConfig::m3Prod();  // ~120 GB of tables
    EXPECT_DEATH(Dlrm model(m3, 1), "analytical cost models");
}

} // namespace
} // namespace recsim::model
