/**
 * @file
 * Elastic-Averaging SGD (Zhang, Choromanska & LeCun), the gradient
 * synchronization method Facebook's CPU trainers use with the center
 * dense parameter server (Fig 4 / Table III "easgd"). Worker threads
 * stand in for trainer servers; the center variable stands in for the
 * dense parameter server.
 */
#pragma once

#include <cstdint>

#include "train/trainer.h"

namespace recsim {
namespace train {

/** EASGD-specific knobs on top of TrainConfig. */
struct EasgdConfig
{
    /** Only batch_size, learning_rate, epochs and model_seed are read;
     *  the workers always step plain SGD. */
    TrainConfig base;
    /** Number of worker replicas (simulated trainer servers). */
    std::size_t num_workers = 4;
    /** Iterations between elastic syncs with the center (tau). */
    std::size_t sync_period = 16;
    /**
     * Elastic coupling strength alpha in
     *   x_i   <- x_i   - alpha (x_i - center)
     *   center <- center + alpha (x_i - center).
     */
    float elasticity = 0.3f;
};

/**
 * Train with @p config.num_workers EASGD replicas
 * (train/async_workers.h). Each replica steps its dense layers
 * (projections included) with SGD and elastically averages them with
 * a center copy every sync_period steps; embedding tables are shared
 * (model-parallel sparse PS, as in production) and take each worker's
 * sparse SGD push without locking. Returns metrics of the center
 * model.
 */
TrainResult trainEasgd(const model::DlrmConfig& model_config,
                       data::SyntheticCtrDataset& dataset,
                       const EasgdConfig& config,
                       std::size_t eval_examples = 8192);

} // namespace train
} // namespace recsim
