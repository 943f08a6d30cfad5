/**
 * @file
 * Tests for model checkpointing: bit-exact save/restore, shape-mismatch
 * rejection, corruption detection, file round trips, and resumed
 * training equivalence (the reliability property production training
 * depends on).
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "data/dataset.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "train/checkpoint.h"
#include "util/units.h"

#include "reference_walk.h"

namespace recsim::train {
namespace {

model::DlrmConfig
tinyConfig()
{
    return model::DlrmConfig::tinyReplica(4, 8, 200, 8);
}

data::SyntheticCtrDataset
tinyDataset()
{
    const auto cfg = tinyConfig();
    data::DatasetConfig ds;
    ds.num_dense = cfg.num_dense;
    ds.sparse = cfg.sparse;
    ds.seed = 17;
    return data::SyntheticCtrDataset(ds);
}

TEST(Checkpoint, RoundTripIsBitExact)
{
    model::Dlrm a(tinyConfig(), 1);
    model::Dlrm b(tinyConfig(), 2);  // different init

    const auto buffer = saveCheckpoint(a);
    const auto status = restoreCheckpoint(b, buffer);
    ASSERT_TRUE(status.ok) << status.error;

    auto pa = a.denseParams();
    auto pb = b.denseParams();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(tensor::maxAbsDiff(*pa[i], *pb[i]), 0.0);
    for (std::size_t f = 0; f < a.tables().size(); ++f) {
        EXPECT_EQ(tensor::maxAbsDiff(a.tables()[f].table,
                                     b.tables()[f].table),
                  0.0);
    }
}

TEST(Checkpoint, RestoredModelPredictsIdentically)
{
    auto ds = tinyDataset();
    const auto batch = ds.nextBatch(16);

    model::Dlrm a(tinyConfig(), 1);
    model::Dlrm b(tinyConfig(), 99);
    const auto buffer = saveCheckpoint(a);
    ASSERT_TRUE(restoreCheckpoint(b, buffer).ok);

    tensor::Tensor la, lb;
    a.forward(batch, la);
    b.forward(batch, lb);
    EXPECT_EQ(tensor::maxAbsDiff(la, lb), 0.0);
}

TEST(Checkpoint, ResumedTrainingMatchesUninterrupted)
{
    auto ds = tinyDataset();
    ds.materialize(4096);

    auto run = [&](bool interrupt) {
        model::Dlrm model(tinyConfig(), 5);
        nn::Sgd opt(0.05f);
        std::vector<uint8_t> snapshot;
        for (std::size_t i = 0; i < 40; ++i) {
            if (interrupt && i == 20) {
                // Simulate preemption: checkpoint, destroy, restore.
                snapshot = saveCheckpoint(model);
                model::Dlrm fresh(tinyConfig(), 1234);
                EXPECT_TRUE(restoreCheckpoint(fresh, snapshot).ok);
                // Continue on the restored replica via a swap of
                // parameters back into `model`.
                const auto buffer = saveCheckpoint(fresh);
                EXPECT_TRUE(restoreCheckpoint(model, buffer).ok);
            }
            const auto batch = ds.epochBatch(i * 64, 64);
            test::referenceForwardBackward(model, batch);
            model.step(opt);
        }
        tensor::Tensor logits;
        const auto eval = ds.epochBatch(3000, 256);
        model.forward(eval, logits);
        return logits;
    };

    const auto uninterrupted = run(false);
    const auto resumed = run(true);
    EXPECT_EQ(tensor::maxAbsDiff(uninterrupted, resumed), 0.0);
}

TEST(Checkpoint, RejectsShapeMismatch)
{
    model::Dlrm a(tinyConfig(), 1);
    model::Dlrm wrong(model::DlrmConfig::tinyReplica(4, 8, 300, 8), 1);
    const auto buffer = saveCheckpoint(a);
    const auto status = restoreCheckpoint(wrong, buffer);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.error.find("architecture"), std::string::npos);
}

TEST(Checkpoint, RejectsCorruptedBuffers)
{
    model::Dlrm a(tinyConfig(), 1);
    auto buffer = saveCheckpoint(a);

    auto truncated = buffer;
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(restoreCheckpoint(a, truncated).ok);

    auto bad_magic = buffer;
    bad_magic[0] ^= 0xff;
    EXPECT_FALSE(restoreCheckpoint(a, bad_magic).ok);

    auto trailing = buffer;
    trailing.push_back(0);
    EXPECT_FALSE(restoreCheckpoint(a, trailing).ok);
}

TEST(Checkpoint, RejectsCorruptedVersionAndSignature)
{
    model::Dlrm a(tinyConfig(), 1);
    const auto buffer = saveCheckpoint(a);

    // Layout: magic u32 | version u32 | signature u64 | ...
    auto bad_version = buffer;
    bad_version[4] = 0x7f;
    const auto version_status = restoreCheckpoint(a, bad_version);
    EXPECT_FALSE(version_status.ok);
    EXPECT_NE(version_status.error.find("version"), std::string::npos);

    auto bad_signature = buffer;
    bad_signature[11] ^= 0xff;
    const auto sig_status = restoreCheckpoint(a, bad_signature);
    EXPECT_FALSE(sig_status.ok);
    EXPECT_NE(sig_status.error.find("architecture"), std::string::npos);

    // A model must survive a failed restore attempt: params were
    // rejected before any payload was applied.
    EXPECT_TRUE(restoreCheckpoint(a, buffer).ok);
}

TEST(Checkpoint, FileRoundTrip)
{
    const std::string path = "/tmp/recsim_ckpt_test.bin";
    model::Dlrm a(tinyConfig(), 1);
    model::Dlrm b(tinyConfig(), 2);
    ASSERT_TRUE(saveCheckpointFile(a, path));
    const auto status = restoreCheckpointFile(b, path);
    EXPECT_TRUE(status.ok) << status.error;
    for (std::size_t f = 0; f < a.tables().size(); ++f) {
        EXPECT_EQ(tensor::maxAbsDiff(a.tables()[f].table,
                                     b.tables()[f].table),
                  0.0);
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileReportsError)
{
    model::Dlrm a(tinyConfig(), 1);
    const auto status =
        restoreCheckpointFile(a, "/nonexistent/checkpoint.bin");
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.error.find("open"), std::string::npos);
}

TEST(Checkpoint, SizeEstimateMatchesActualForSmallModels)
{
    const auto cfg = tinyConfig();
    model::Dlrm model(cfg, 1);
    const auto buffer = saveCheckpoint(model);
    EXPECT_NEAR(static_cast<double>(buffer.size()),
                checkpointBytes(cfg),
                checkpointBytes(cfg) * 0.01 + 64.0);
}

TEST(Checkpoint, ProductionScaleEstimates)
{
    // M3's checkpoint is dominated by its ~120 GB of tables — the
    // capacity-planning number the reliability papers care about.
    const double m3 = checkpointBytes(model::DlrmConfig::m3Prod());
    EXPECT_GT(m3, 100.0 * util::kGB);
    EXPECT_LT(m3, 200.0 * util::kGB);
}

// ---------------------------------------------------------------------
// Optimizer (Adagrad) state in checkpoints — format v2
// ---------------------------------------------------------------------

TEST(CheckpointAdagrad, OptimizerStateRoundTripsBitExact)
{
    auto ds = tinyDataset();
    ds.materialize(2048);

    model::Dlrm a(tinyConfig(), 1);
    nn::Adagrad a_opt(0.05f);
    for (std::size_t i = 0; i < 10; ++i) {
        test::referenceForwardBackward(a,
                                       ds.epochBatch(i * 64, 64));
        a.step(a_opt);
    }

    const auto buffer = saveCheckpoint(a, &a_opt);

    model::Dlrm b(tinyConfig(), 77);
    nn::Adagrad b_opt(0.05f);
    const auto status = restoreCheckpoint(b, buffer, &b_opt);
    ASSERT_TRUE(status.ok) << status.error;

    const auto pa = a.denseParams();
    const auto pb = b.denseParams();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(tensor::maxAbsDiff(*pa[i], *pb[i]), 0.0);
        const auto sa = a_opt.denseState(*pa[i]);
        const auto sb = b_opt.denseState(*pb[i]);
        EXPECT_FALSE(sa.empty());  // training touched every dense param
        EXPECT_EQ(sa, sb) << "dense accumulator " << i;
    }
    for (std::size_t f = 0; f < a.tables().size(); ++f) {
        EXPECT_EQ(a_opt.rowState(a.tables()[f]),
                  b_opt.rowState(b.tables()[f]))
            << "row accumulator " << f;
    }
}

TEST(CheckpointAdagrad, ResumedTrainingMatchesUninterrupted)
{
    auto ds = tinyDataset();
    ds.materialize(4096);

    auto run = [&](bool interrupt, bool restore_optimizer) {
        model::Dlrm model(tinyConfig(), 5);
        auto opt = std::make_unique<nn::Adagrad>(0.05f);
        for (std::size_t i = 0; i < 40; ++i) {
            if (interrupt && i == 20) {
                // Preemption: checkpoint params + accumulators, lose
                // the live optimizer, clobber a parameter, restore.
                const auto snapshot =
                    saveCheckpoint(model, opt.get());
                opt = std::make_unique<nn::Adagrad>(0.05f);
                model.denseParams()[0]->fill(0.0f);
                const auto status = restoreCheckpoint(
                    model, snapshot,
                    restore_optimizer ? opt.get() : nullptr);
                EXPECT_TRUE(status.ok) << status.error;
            }
            test::referenceForwardBackward(model,
                                           ds.epochBatch(i * 64, 64));
            model.step(*opt);
        }
        tensor::Tensor logits;
        model.forward(ds.epochBatch(3000, 256), logits);
        return logits;
    };

    const auto uninterrupted = run(false, true);
    const auto resumed = run(true, true);
    EXPECT_EQ(tensor::maxAbsDiff(uninterrupted, resumed), 0.0);

    // Dropping the accumulators must visibly change the trajectory —
    // proof that the v2 payload carries real state, not padding.
    const auto amnesiac = run(true, false);
    EXPECT_GT(tensor::maxAbsDiff(uninterrupted, amnesiac), 0.0);
}

TEST(CheckpointAdagrad, StatelessCheckpointResetsAccumulators)
{
    auto ds = tinyDataset();
    ds.materialize(1024);

    model::Dlrm model(tinyConfig(), 1);
    nn::Adagrad opt(0.05f);
    test::referenceForwardBackward(model, ds.epochBatch(0, 64));
    model.step(opt);
    const auto stateless = saveCheckpoint(model);  // no optimizer

    ASSERT_FALSE(opt.denseState(*model.denseParams()[0]).empty());
    ASSERT_TRUE(restoreCheckpoint(model, stateless, &opt).ok);
    EXPECT_TRUE(opt.denseState(*model.denseParams()[0]).empty());
    EXPECT_TRUE(opt.rowState(model.tables()[0]).empty());
}

TEST(CheckpointAdagrad, RejectsTruncatedOptimizerState)
{
    auto ds = tinyDataset();
    ds.materialize(1024);

    model::Dlrm model(tinyConfig(), 1);
    nn::Adagrad opt(0.05f);
    test::referenceForwardBackward(model, ds.epochBatch(0, 64));
    model.step(opt);

    const auto full = saveCheckpoint(model, &opt);
    const auto bare = saveCheckpoint(model);
    ASSERT_GT(full.size(), bare.size());

    // Cut inside the optimizer section (params intact).
    auto truncated = full;
    truncated.resize(bare.size() + (full.size() - bare.size()) / 2);
    const auto status = restoreCheckpoint(model, truncated, &opt);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.error.find("optimizer"), std::string::npos);
}

TEST(CheckpointAdagrad, FileRoundTripCarriesState)
{
    const std::string path = "/tmp/recsim_ckpt_adagrad_test.bin";
    auto ds = tinyDataset();
    ds.materialize(1024);

    model::Dlrm a(tinyConfig(), 1);
    nn::Adagrad a_opt(0.05f);
    test::referenceForwardBackward(a, ds.epochBatch(0, 64));
    a.step(a_opt);
    ASSERT_TRUE(saveCheckpointFile(a, path, &a_opt));

    model::Dlrm b(tinyConfig(), 2);
    nn::Adagrad b_opt(0.05f);
    const auto status = restoreCheckpointFile(b, path, &b_opt);
    EXPECT_TRUE(status.ok) << status.error;
    EXPECT_EQ(a_opt.denseState(*a.denseParams()[0]),
              b_opt.denseState(*b.denseParams()[0]));
    std::remove(path.c_str());
}

} // namespace
} // namespace recsim::train
