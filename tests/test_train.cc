/**
 * @file
 * Tests for the functional training substrate: single-thread baseline,
 * Hogwild, EASGD, and the learning-rate sweep behind Fig 15.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "train/easgd.h"
#include "train/shadow_sync.h"
#include "train/hogwild.h"
#include "train/sweep.h"
#include "train/trainer.h"
#include "util/thread_pool.h"

namespace recsim::train {
namespace {

model::DlrmConfig
tinyModel()
{
    return model::DlrmConfig::tinyReplica(4, 8, 500, 8);
}

data::DatasetConfig
tinyData(uint64_t seed = 77)
{
    const auto m = tinyModel();
    data::DatasetConfig cfg;
    cfg.num_dense = m.num_dense;
    cfg.sparse = m.sparse;
    cfg.seed = seed;
    return cfg;
}

TEST(SingleThread, LearnsBeyondBaseRate)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(12000);
    TrainConfig cfg;
    cfg.batch_size = 128;
    cfg.learning_rate = 0.05f;
    cfg.epochs = 2;
    const TrainResult result =
        trainSingleThread(tinyModel(), ds, cfg, 2000);
    EXPECT_GT(result.steps, 100u);
    EXPECT_LT(result.eval_ne, 1.0);  // beats predicting the base CTR
    EXPECT_GT(result.eval_accuracy, 0.5);
    EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

TEST(SingleThread, DeterministicForSeeds)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(6000);
    TrainConfig cfg;
    cfg.batch_size = 128;
    cfg.learning_rate = 0.05f;
    const auto a = trainSingleThread(tinyModel(), ds, cfg, 1000);
    const auto b = trainSingleThread(tinyModel(), ds, cfg, 1000);
    EXPECT_DOUBLE_EQ(a.eval_ne, b.eval_ne);
    EXPECT_DOUBLE_EQ(a.eval_loss, b.eval_loss);
}

TEST(SingleThread, SgdAndAdagradBothLearn)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(8000);
    TrainConfig cfg;
    cfg.batch_size = 128;
    cfg.learning_rate = 0.05f;
    cfg.optimizer = OptimizerKind::Sgd;
    const auto sgd = trainSingleThread(tinyModel(), ds, cfg, 1000);
    cfg.optimizer = OptimizerKind::Adagrad;
    const auto adagrad = trainSingleThread(tinyModel(), ds, cfg, 1000);
    EXPECT_LT(sgd.eval_ne, 1.0);
    EXPECT_LT(adagrad.eval_ne, 1.0);
}

TEST(SingleThread, LossCurveRecordedWhenRequested)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(6000);
    TrainConfig cfg;
    cfg.batch_size = 128;
    cfg.eval_every = 10;
    const auto result = trainSingleThread(tinyModel(), ds, cfg, 1000);
    EXPECT_GT(result.loss_curve.size(), 2u);
    EXPECT_EQ(result.loss_curve.front().first, 0u);
}

TEST(SingleThread, MoreStepsImproveNe)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(12000);
    TrainConfig short_cfg;
    short_cfg.batch_size = 2048;  // few steps on the same data
    short_cfg.learning_rate = 0.05f;
    TrainConfig long_cfg = short_cfg;
    long_cfg.batch_size = 128;    // many steps
    const auto few = trainSingleThread(tinyModel(), ds, short_cfg, 2000);
    const auto many = trainSingleThread(tinyModel(), ds, long_cfg, 2000);
    // The Fig 15 mechanism: at the same LR, fewer/larger steps converge
    // less within one pass over the data.
    EXPECT_LT(many.eval_ne, few.eval_ne);
}

TEST(Hogwild, LearnsWithMultipleThreads)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(12000);
    HogwildConfig cfg;
    cfg.base.batch_size = 128;
    cfg.base.learning_rate = 0.05f;
    cfg.num_threads = 4;
    const auto result = trainHogwild(tinyModel(), ds, cfg, 2000);
    EXPECT_LT(result.eval_ne, 1.0);
    EXPECT_GT(result.steps, 0u);
}

TEST(Hogwild, SingleThreadDegeneratesToSequential)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(8000);
    HogwildConfig cfg;
    cfg.base.batch_size = 128;
    cfg.base.learning_rate = 0.05f;
    cfg.num_threads = 1;
    const auto result = trainHogwild(tinyModel(), ds, cfg, 1000);
    EXPECT_LT(result.eval_ne, 1.0);
}

TEST(Easgd, CenterModelLearns)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(12000);
    EasgdConfig cfg;
    cfg.base.batch_size = 64;
    cfg.base.learning_rate = 0.05f;
    cfg.base.epochs = 3;
    cfg.num_workers = 4;
    cfg.sync_period = 4;
    const auto result = trainEasgd(tinyModel(), ds, cfg, 2000);
    EXPECT_LT(result.eval_ne, 1.0);
    EXPECT_GT(result.steps, 0u);
}

TEST(Easgd, MoreFrequentSyncTracksCloser)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(12000);
    EasgdConfig cfg;
    cfg.base.batch_size = 64;
    cfg.base.learning_rate = 0.05f;
    cfg.base.epochs = 2;
    cfg.num_workers = 4;
    cfg.sync_period = 2;
    const auto frequent = trainEasgd(tinyModel(), ds, cfg, 2000);
    cfg.sync_period = 256;
    const auto rare = trainEasgd(tinyModel(), ds, cfg, 2000);
    // With very rare syncs the center barely moves; NE must be worse
    // (or at best equal) than with tight coupling.
    EXPECT_LE(frequent.eval_ne, rare.eval_ne + 0.05);
}

// One worker has no races, and every node of its steps runs on the
// worker's own thread with inner kernels whose chunks do not depend on
// the pool: the results must not change by a bit with the pool size.
TEST(AsyncTrainers, OneWorkerResultsBitIdenticalAtPool1And8)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(6000);
    HogwildConfig hogwild;
    hogwild.num_threads = 1;
    hogwild.base.batch_size = 64;
    hogwild.base.learning_rate = 0.05f;
    EasgdConfig easgd;
    easgd.base = hogwild.base;
    easgd.num_workers = 1;
    easgd.sync_period = 4;

    auto& pool = util::globalThreadPool();
    std::vector<TrainResult> runs;
    for (const std::size_t threads : {1u, 8u}) {
        pool.resize(threads);
        runs.push_back(trainHogwild(tinyModel(), ds, hogwild, 1000));
        runs.push_back(trainEasgd(tinyModel(), ds, easgd, 1000));
    }
    pool.resize(util::configuredThreads());

    const auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof(double)) == 0;
    };
    for (std::size_t i = 0; i < 2; ++i) {
        const TrainResult& a = runs[i];
        const TrainResult& b = runs[i + 2];
        const char* name = i == 0 ? "hogwild" : "easgd";
        EXPECT_EQ(a.steps, b.steps) << name;
        EXPECT_TRUE(same(a.final_train_loss, b.final_train_loss)) << name;
        EXPECT_TRUE(same(a.eval_loss, b.eval_loss)) << name;
        EXPECT_TRUE(same(a.eval_ne, b.eval_ne)) << name;
        EXPECT_TRUE(same(a.eval_accuracy, b.eval_accuracy)) << name;
    }
}

// A zero batch size or sync period would divide by zero inside the
// worker loop; the trainers reject both up front, naming the field.
TEST(AsyncTrainersDeath, HogwildRejectsZeroBatchSize)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(1024);
    HogwildConfig cfg;
    cfg.base.batch_size = 0;
    EXPECT_DEATH(trainHogwild(tinyModel(), ds, cfg, 256), "batch_size");
}

TEST(AsyncTrainersDeath, EasgdRejectsZeroBatchSize)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(1024);
    EasgdConfig cfg;
    cfg.base.batch_size = 0;
    EXPECT_DEATH(trainEasgd(tinyModel(), ds, cfg, 256), "batch_size");
}

TEST(AsyncTrainersDeath, ShadowSyncRejectsZeroBatchSize)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(1024);
    ShadowSyncConfig cfg;
    cfg.base.batch_size = 0;
    EXPECT_DEATH(trainShadowSync(tinyModel(), ds, cfg, 256),
                 "batch_size");
}

TEST(AsyncTrainersDeath, EasgdRejectsZeroSyncPeriod)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(1024);
    EasgdConfig cfg;
    cfg.sync_period = 0;
    EXPECT_DEATH(trainEasgd(tinyModel(), ds, cfg, 256), "sync_period");
}

TEST(ShadowSync, CenterModelLearns)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(12000);
    ShadowSyncConfig cfg;
    cfg.base.batch_size = 64;
    cfg.base.learning_rate = 0.05f;
    cfg.base.epochs = 3;
    cfg.num_workers = 4;
    const auto result = trainShadowSync(tinyModel(), ds, cfg, 2000);
    EXPECT_LT(result.eval_ne, 1.1);
    EXPECT_GT(result.steps, 0u);
    EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

TEST(ShadowSync, SingleWorkerStillConverges)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(8000);
    ShadowSyncConfig cfg;
    cfg.base.batch_size = 64;
    cfg.base.learning_rate = 0.05f;
    cfg.base.epochs = 2;
    cfg.num_workers = 1;
    const auto result = trainShadowSync(tinyModel(), ds, cfg, 1000);
    EXPECT_LT(result.eval_ne, 1.1);
}

TEST(Sweep, PicksBestLearningRate)
{
    data::SyntheticCtrDataset ds(tinyData());
    ds.materialize(8000);
    TrainConfig cfg;
    cfg.batch_size = 256;
    const auto sweep = sweepLearningRate(
        tinyModel(), ds, cfg, {0.0001f, 0.05f}, 1000);
    ASSERT_EQ(sweep.points.size(), 2u);
    // 0.05 should clearly beat a nearly-frozen 0.0001.
    EXPECT_EQ(sweep.best_index, 1u);
    for (const auto& point : sweep.points)
        EXPECT_GE(point.result.eval_ne, sweep.best().result.eval_ne);
}

TEST(Sweep, DefaultGridIsSortedAndPositive)
{
    const auto grid = defaultLrGrid();
    ASSERT_GT(grid.size(), 2u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_GT(grid[i], 0.0f);
        if (i) {
            EXPECT_GT(grid[i], grid[i - 1]);
        }
    }
}

} // namespace
} // namespace recsim::train
