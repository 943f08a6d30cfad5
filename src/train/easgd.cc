#include "train/easgd.h"

#include <mutex>

#include "obs/trace.h"
#include "train/async_workers.h"
#include "train/racy_traffic.h"
#include "util/logging.h"

namespace recsim {
namespace train {

TrainResult
trainEasgd(const model::DlrmConfig& model_config,
           data::SyntheticCtrDataset& dataset, const EasgdConfig& config,
           std::size_t eval_examples)
{
    RECSIM_ASSERT(config.elasticity > 0.0f && config.elasticity <= 1.0f,
                  "elasticity must be in (0, 1]");
    RECSIM_ASSERT(config.sync_period > 0,
                  "EasgdConfig::sync_period must be positive, got 0");
    // The shared model is the center: its dense params act as the
    // dense PS, its embedding tables as the shared sparse PS (workers
    // update them in place, Hogwild-style across trainers, as
    // production does).
    AsyncWorkers workers(model_config, dataset, config.base,
                         config.num_workers, eval_examples);
    model::Dlrm& center = workers.shared();
    std::mutex center_mutex;
    const nn::Sgd sgd(config.base.learning_rate);
    return workers.run({
        .iteration_span = "easgd.iteration",
        .pull =
            [&](std::size_t w, const data::MiniBatch& batch) {
                racy::pullTouchedRows(center, workers.replica(w), batch);
            },
        .update =
            [&](std::size_t w, std::size_t step) {
                model::Dlrm& replica = workers.replica(w);
                // Local dense step on the replica; sparse rows update
                // the shared tables directly, without locking.
                replica.stepDense(sgd);
                racy::pushSparseGrads(center, replica,
                                      config.base.learning_rate);
                if ((step + 1) % config.sync_period != 0)
                    return;
                // Periodic elastic sync with the center.
                RECSIM_TRACE_SPAN("easgd.sync");
                std::lock_guard<std::mutex> lock(center_mutex);
                racy::elasticAverage(center, replica, config.elasticity);
            },
    });
}

} // namespace train
} // namespace recsim
