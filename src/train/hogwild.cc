#include "train/hogwild.h"

#include <atomic>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/pool_metrics.h"
#include "obs/trace.h"
#include "train/racy_traffic.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace recsim {
namespace train {

// Hogwild's parameter traffic is *deliberately* lock-free: torn reads
// and lost updates are part of the algorithm. All such accesses go
// through the annotated raw-loop helpers in train/racy_traffic.h;
// everything else in this file synchronizes normally and stays
// ThreadSanitizer-instrumented.
namespace {

void
applyDenseGrads(model::Dlrm& master, model::Dlrm& replica, float lr)
{
    auto apply = [lr](nn::Mlp& dst, nn::Mlp& src) {
        for (std::size_t l = 0; l < dst.layers().size(); ++l)
            racy::applyLayerGrads(dst.layers()[l], src.layers()[l], lr);
    };
    apply(master.bottomMlp(), replica.bottomMlp());
    apply(master.topMlp(), replica.topMlp());
}

} // namespace

TrainResult
trainHogwild(const model::DlrmConfig& model_config,
             data::SyntheticCtrDataset& dataset,
             const HogwildConfig& config, std::size_t eval_examples)
{
    RECSIM_ASSERT(config.num_threads >= 1, "need at least one worker");
    RECSIM_ASSERT(dataset.materializedSize() > eval_examples,
                  "materialize() the dataset before training");
    const TrainConfig& base = config.base;
    const std::size_t train_examples =
        dataset.materializedSize() - eval_examples;

    // The master holds the shared parameters. Each worker keeps a
    // private replica for activations/gradient scratch, pulls the
    // master's current parameters without locking before every step,
    // and pushes its gradient update back without locking. Torn reads
    // and lost updates are tolerated by design — that *is* Hogwild.
    model::Dlrm master(model_config, base.model_seed);
    nn::Sgd sgd(base.learning_rate);

    const std::size_t shard = train_examples / config.num_threads;
    const std::size_t steps_per_worker =
        std::max<std::size_t>(shard / base.batch_size, 1) * base.epochs;

    std::atomic<std::size_t> total_steps{0};
    std::vector<double> final_losses(config.num_threads, 0.0);

    auto worker = [&](std::size_t tid) {
        model::Dlrm replica(model_config, base.model_seed);
        auto master_params = master.denseParams();
        auto replica_params = replica.denseParams();
        const std::size_t begin = tid * shard;
        double tail_loss = 0.0;
        std::size_t tail_count = 0;
        const std::size_t tail_start = steps_per_worker -
            std::max<std::size_t>(steps_per_worker / 10, 1);

        for (std::size_t step = 0; step < steps_per_worker; ++step) {
            RECSIM_TRACE_SPAN("hogwild.iteration");
            data::MiniBatch batch;
            {
                RECSIM_TRACE_SPAN("hogwild.pull");
                // Racy pull of the current dense parameters (no
                // locks).
                for (std::size_t i = 0; i < master_params.size(); ++i)
                    racy::copyTensor(*master_params[i],
                                     *replica_params[i]);
                // Embedding rows are read from the master directly:
                // copy the rows this batch touches. For simplicity and
                // fidelity to Hogwild's sparse-access argument,
                // replicate whole tables only once (seed-identical
                // init) and sync touched rows.
                const std::size_t offset = begin +
                    (step * base.batch_size) % std::max(shard, 1ul);
                batch = dataset.epochBatch(offset, base.batch_size);
                racy::pullTouchedRows(master, replica, batch);
            }

            const double loss = replica.forwardBackward(batch);
            if (step >= tail_start) {
                tail_loss += loss;
                ++tail_count;
            }

            {
                RECSIM_TRACE_SPAN("hogwild.push");
                // Racy push: apply the replica's gradients to the
                // master.
                const float lr = base.learning_rate;
                applyDenseGrads(master, replica, lr);
                racy::pushSparseGrads(master, replica, lr);
            }
            replica.zeroGrad();
            obs::MetricsRegistry::global().incr("hogwild.iterations");
            total_steps.fetch_add(1, std::memory_order_relaxed);
        }
        final_losses[tid] =
            tail_count ? tail_loss / static_cast<double>(tail_count)
                       : 0.0;
    };

    std::vector<std::thread> threads;
    threads.reserve(config.num_threads);
    for (std::size_t t = 0; t < config.num_threads; ++t)
        threads.emplace_back(worker, t);
    for (auto& t : threads)
        t.join();

    TrainResult result;
    result.steps = total_steps.load();
    double loss = 0.0;
    for (double l : final_losses)
        loss += l;
    result.final_train_loss =
        loss / static_cast<double>(config.num_threads);
    evaluateModel(master, dataset, eval_examples, result);
    obs::publishThreadPoolMetrics();
    return result;
}

} // namespace train
} // namespace recsim
