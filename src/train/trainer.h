/**
 * @file
 * Single-threaded reference trainer: the baseline the asynchronous
 * schemes (Hogwild, EASGD) and the batch-size accuracy study compare
 * against. Trains a Dlrm on a materialized SyntheticCtrDataset for a
 * fixed number of epochs and reports loss/NE trajectories.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "model/dlrm.h"

namespace recsim {
namespace train {

/** Which optimizer a trainer uses. */
enum class OptimizerKind { Sgd, Adagrad };

/** Which embedding storage backend the trainer installs. */
enum class EmbeddingBackendKind { Dram, Cached };

/** Training hyper-parameters. */
struct TrainConfig
{
    std::size_t batch_size = 256;
    float learning_rate = 0.1f;
    OptimizerKind optimizer = OptimizerKind::Adagrad;
    std::size_t epochs = 1;
    uint64_t model_seed = 1;
    /**
     * Append (step, training loss) to TrainResult::loss_curve every
     * this many iterations (0 = never). Nothing is evaluated on the
     * held-out set along the way; that happens once, at the end.
     */
    std::size_t eval_every = 0;
    /**
     * Run graph::fusePass over the step graph before training: bias +
     * ReLU fold into GEMM epilogues and per-device embedding lookups
     * batch into grouped nodes. Results are bit-identical to the
     * unfused walk; only the per-step wall time changes.
     */
    bool fuse_graph = false;
    /**
     * Embedding storage backend (nn/embedding_backend.h). Cached
     * splits @p hot_tier_bytes across tables with the placement
     * hot-tier allocator (densest whole tables first, leftover by
     * traffic share) and measures per-tier hit rates; results are
     * bitwise-identical to Dram either way.
     */
    EmbeddingBackendKind embedding_backend = EmbeddingBackendKind::Dram;
    /** Hot-tier capacity budget for the Cached backend, in bytes. */
    double hot_tier_bytes = 0.0;
    /** Batches between hot-set refreshes for the Cached backend. */
    std::size_t hot_tier_refresh_every = 8;
};

/** Outcome of a training run. */
struct TrainResult
{
    /** Mean training loss of the final 10% of iterations (tailLoss();
     *  the async trainers average it over workers). */
    double final_train_loss = 0.0;
    /** BCE loss on the held-out evaluation set. */
    double eval_loss = 0.0;
    /** Normalized entropy on the held-out set (lower is better). */
    double eval_ne = 0.0;
    /** Classification accuracy on the held-out set. */
    double eval_accuracy = 0.0;
    /** Number of optimizer steps taken. */
    std::size_t steps = 0;
    /** (step, train loss) samples along the run. */
    std::vector<std::pair<std::size_t, double>> loss_curve;
};

/**
 * The final-10% rule of TrainResult::final_train_loss, for every
 * trainer: the mean of the last max(n / 10, 1) of a run's n step
 * losses (0 when n is 0).
 */
double tailLoss(const std::vector<double>& step_losses);

/**
 * Train @p config's model on the train split of @p dataset and evaluate
 * on the eval split.
 *
 * @param dataset     Must be materialized; the last @p eval_examples
 *                    are held out, the rest form the training set.
 * @param eval_examples Size of the held-out split.
 */
TrainResult trainSingleThread(const model::DlrmConfig& model_config,
                              data::SyntheticCtrDataset& dataset,
                              const TrainConfig& config,
                              std::size_t eval_examples = 8192);

/** Evaluate a model on the last @p eval_examples of @p dataset. */
void evaluateModel(model::Dlrm& model, data::SyntheticCtrDataset& dataset,
                   std::size_t eval_examples, TrainResult& result);

} // namespace train
} // namespace recsim
