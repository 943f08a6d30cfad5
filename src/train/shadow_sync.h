/**
 * @file
 * ShadowSync-style training (Zheng et al., cited by the paper alongside
 * EASGD and Hogwild as Facebook's asynchronous methods): parameter
 * synchronization is taken *off the training critical path* — workers
 * never block on sync; a dedicated shadow thread continuously averages
 * worker replicas with the center copy in the background.
 *
 * Compared with EASGD (workers stop to sync every tau steps), workers
 * here spend 100% of their time on forward/backward, which is exactly
 * the throughput argument for the algorithm; the quality risk is the
 * staleness of the background average, measured by the tests and the
 * ablation bench.
 */
#pragma once

#include <cstdint>

#include "train/trainer.h"

namespace recsim {
namespace train {

/** ShadowSync-specific knobs on top of TrainConfig. */
struct ShadowSyncConfig
{
    /** Only batch_size, learning_rate, epochs and model_seed are read;
     *  the workers always step plain SGD. */
    TrainConfig base;
    /** Concurrent worker replicas. */
    std::size_t num_workers = 4;
    /**
     * Elastic coupling strength per background pass (same role as
     * EASGD's alpha, applied by the shadow thread instead of workers).
     */
    float elasticity = 0.3f;
    /**
     * Target background passes over all workers per worker step —
     * controls how fresh the center stays. The shadow thread self-paces
     * to approximate this rate.
     */
    double sync_rate = 0.25;
};

/**
 * Train with @p config.num_workers replicas (train/async_workers.h)
 * and one background shadow thread. Workers step their dense layers
 * (projections included) with SGD, update the shared embedding tables
 * in place (Hogwild-style, as in production) and never block; the
 * shadow thread elastically averages dense parameters worker-by-worker
 * until all workers finish. Returns metrics of the center model.
 */
TrainResult trainShadowSync(const model::DlrmConfig& model_config,
                            data::SyntheticCtrDataset& dataset,
                            const ShadowSyncConfig& config,
                            std::size_t eval_examples = 8192);

} // namespace train
} // namespace recsim
