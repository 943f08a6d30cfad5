#include "train/shadow_sync.h"

#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "train/async_workers.h"
#include "train/racy_traffic.h"
#include "util/logging.h"

namespace recsim {
namespace train {

TrainResult
trainShadowSync(const model::DlrmConfig& model_config,
                data::SyntheticCtrDataset& dataset,
                const ShadowSyncConfig& config,
                std::size_t eval_examples)
{
    RECSIM_ASSERT(config.elasticity > 0.0f && config.elasticity <= 1.0f,
                  "elasticity must be in (0, 1]");
    // The replicas exist before any thread starts, so the shadow thread
    // averages every one of them from its first pass. Each replica has
    // a mutex the shadow thread takes for its brief averaging passes;
    // workers take it only around the dense optimizer step
    // (microseconds), so sync stays off the critical path in spirit and
    // nearly in letter.
    AsyncWorkers workers(model_config, dataset, config.base,
                         config.num_workers, eval_examples);
    model::Dlrm& center = workers.shared();
    std::vector<std::mutex> locks(workers.size());
    const nn::Sgd sgd(config.base.learning_rate);

    // The shadow thread: loop over workers, elastically averaging each
    // with the center, pacing itself to ~sync_rate passes per step.
    // After a pass that began with every worker done it stops, so each
    // worker's final parameters are averaged in.
    auto shadow = [&] {
        std::size_t passes = 0;
        while (true) {
            RECSIM_TRACE_SPAN("shadow.sync_pass");
            const bool all_done = workers.workersDone() == workers.size();
            for (std::size_t w = 0; w < workers.size(); ++w) {
                // The lock excludes the worker's optimizer step only;
                // its forward pass reads these params concurrently by
                // design (racy_traffic.h).
                std::lock_guard<std::mutex> lock(locks[w]);
                racy::elasticAverage(center, workers.replica(w),
                                     config.elasticity);
            }
            ++passes;
            if (all_done)
                break;
            // Pace: aim for sync_rate passes per worker step so the
            // shadow thread neither starves nor monopolizes the bus.
            const double target_passes = config.sync_rate *
                static_cast<double>(workers.stepsDone() + 1) /
                static_cast<double>(workers.size());
            if (static_cast<double>(passes) > target_passes) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
        }
    };

    return workers.run({
        .iteration_span = "shadow.iteration",
        .pull =
            [&](std::size_t w, const data::MiniBatch& batch) {
                racy::pullTouchedRows(center, workers.replica(w), batch);
            },
        .update =
            [&](std::size_t w, std::size_t) {
                model::Dlrm& replica = workers.replica(w);
                {
                    std::lock_guard<std::mutex> lock(locks[w]);
                    replica.stepDense(sgd);
                }
                // Sparse rows update the shared tables without locking.
                racy::pushSparseGrads(center, replica,
                                      config.base.learning_rate);
            },
    }, shadow);
}

} // namespace train
} // namespace recsim
