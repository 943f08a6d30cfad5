#include "train/hogwild.h"

#include "obs/metrics.h"
#include "obs/pool_metrics.h"
#include "obs/trace.h"
#include "train/async_workers.h"
#include "train/racy_traffic.h"

namespace recsim {
namespace train {

// Hogwild's parameter traffic is *deliberately* lock-free: torn reads
// and lost updates are part of the algorithm. All such accesses go
// through the annotated raw-loop helpers in train/racy_traffic.h;
// everything else synchronizes normally and stays
// ThreadSanitizer-instrumented.
TrainResult
trainHogwild(const model::DlrmConfig& model_config,
             data::SyntheticCtrDataset& dataset,
             const HogwildConfig& config, std::size_t eval_examples)
{
    // The shared model is the master holding the parameters. Each
    // worker's replica is activation/gradient scratch: it pulls the
    // master's current parameters without locking before every step
    // and pushes its gradient update back without locking.
    AsyncWorkers workers(model_config, dataset, config.base,
                         config.num_threads, eval_examples);
    model::Dlrm& master = workers.shared();
    const float lr = config.base.learning_rate;
    TrainResult result = workers.run({
        .iteration_span = "hogwild.iteration",
        .pull =
            [&](std::size_t w, const data::MiniBatch& batch) {
                RECSIM_TRACE_SPAN("hogwild.pull");
                // Replicas start seed-identical to the master, so only
                // the embedding rows this batch touches need a pull.
                racy::pullDenseParams(master, workers.replica(w));
                racy::pullTouchedRows(master, workers.replica(w), batch);
            },
        .update =
            [&](std::size_t w, std::size_t) {
                {
                    RECSIM_TRACE_SPAN("hogwild.push");
                    racy::pushDenseGrads(master, workers.replica(w), lr);
                    racy::pushSparseGrads(master, workers.replica(w), lr);
                }
                obs::MetricsRegistry::global().incr("hogwild.iterations");
            },
    });
    obs::publishThreadPoolMetrics();
    return result;
}

} // namespace train
} // namespace recsim
