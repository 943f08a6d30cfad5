/**
 * @file
 * Hogwild! trainer: multiple threads updating one shared Dlrm without
 * locks (Recht et al., the asynchronous update scheme the paper's CPU
 * trainers run). Races on the shared parameters are the algorithm, not
 * a bug: sparse DLRM gradients rarely collide, so convergence survives.
 */
#pragma once

#include <cstdint>

#include "train/trainer.h"

namespace recsim {
namespace train {

/** Hogwild-specific knobs on top of TrainConfig. */
struct HogwildConfig
{
    /** Only batch_size, learning_rate, epochs and model_seed are read;
     *  the workers always push plain SGD. */
    TrainConfig base;
    /** Concurrent lock-free workers (the paper's "N hogwild"). */
    std::size_t num_threads = 4;
};

/**
 * Train one shared model with @p config.num_threads lock-free workers
 * (train/async_workers.h). The training set is partitioned across
 * workers. Each step, a worker pulls the shared dense parameters and
 * the embedding rows its batch touches, runs the step on its replica,
 * and pushes -learning_rate x gradient into every dense layer
 * (projections included) and every touched row, all without
 * synchronization.
 */
TrainResult trainHogwild(const model::DlrmConfig& model_config,
                         data::SyntheticCtrDataset& dataset,
                         const HogwildConfig& config,
                         std::size_t eval_examples = 8192);

} // namespace train
} // namespace recsim
