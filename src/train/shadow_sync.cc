#include "train/shadow_sync.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.h"
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
    RECSIM_ASSERT(config.num_workers >= 1, "need at least one worker");
    RECSIM_ASSERT(config.elasticity > 0.0f && config.elasticity <= 1.0f,
                  "elasticity must be in (0, 1]");
    RECSIM_ASSERT(dataset.materializedSize() > eval_examples,
                  "materialize() the dataset before training");
    const TrainConfig& base = config.base;
    const std::size_t train_examples =
        dataset.materializedSize() - eval_examples;

    model::Dlrm center(model_config, base.model_seed);

    // Worker replicas live for the whole run so the shadow thread can
    // average against them while they train. Each replica has a mutex
    // the shadow thread uses for its brief averaging passes; workers
    // take it only around the dense optimizer step (microseconds), so
    // sync stays off the critical path in spirit and nearly in letter.
    struct Worker
    {
        std::unique_ptr<model::Dlrm> replica;
        std::mutex mutex;
        std::atomic<bool> done{false};
    };
    std::vector<Worker> workers(config.num_workers);
    for (auto& w : workers)
        w.replica = std::make_unique<model::Dlrm>(model_config,
                                                  base.model_seed);

    const std::size_t shard = train_examples / config.num_workers;
    const std::size_t steps_per_worker =
        std::max<std::size_t>(shard / base.batch_size, 1) * base.epochs;

    std::atomic<std::size_t> total_steps{0};
    std::vector<double> final_losses(config.num_workers, 0.0);

    auto worker_fn = [&](std::size_t tid) {
        Worker& self = workers[tid];
        nn::Sgd sgd(base.learning_rate);
        const std::size_t begin = tid * shard;
        const std::size_t tail_start = steps_per_worker -
            std::max<std::size_t>(steps_per_worker / 10, 1);
        double tail_loss = 0.0;
        std::size_t tail_count = 0;

        for (std::size_t step = 0; step < steps_per_worker; ++step) {
            RECSIM_TRACE_SPAN("shadow.iteration");
            const std::size_t offset =
                begin + (step * base.batch_size) % std::max(shard, 1ul);
            data::MiniBatch batch =
                dataset.epochBatch(offset, base.batch_size);

            // Pull touched embedding rows from the shared tables.
            racy::pullTouchedRows(center, *self.replica, batch);

            const double loss = self.replica->forwardBackward(batch);
            if (step >= tail_start) {
                tail_loss += loss;
                ++tail_count;
            }

            {
                std::lock_guard<std::mutex> lock(self.mutex);
                sgd.step(self.replica->bottomMlp());
                sgd.step(self.replica->topMlp());
            }
            // Sparse rows update the shared tables without locking.
            racy::pushSparseGrads(center, *self.replica,
                                  base.learning_rate);
            self.replica->zeroGrad();
            total_steps.fetch_add(1, std::memory_order_relaxed);
        }
        final_losses[tid] =
            tail_count ? tail_loss / static_cast<double>(tail_count)
                       : 0.0;
        self.done.store(true, std::memory_order_release);
    };

    // The shadow thread: loop over workers, elastically averaging each
    // with the center, pacing itself to ~sync_rate passes per step.
    std::atomic<uint64_t> shadow_passes{0};
    auto shadow_fn = [&] {
        auto center_params = center.denseParams();
        while (true) {
            RECSIM_TRACE_SPAN("shadow.sync_pass");
            bool all_done = true;
            for (auto& w : workers) {
                if (!w.done.load(std::memory_order_acquire))
                    all_done = false;
                std::lock_guard<std::mutex> lock(w.mutex);
                auto worker_params = w.replica->denseParams();
                // The lock excludes the worker's optimizer step only;
                // its forward pass reads these params concurrently by
                // design (racy_traffic.h).
                for (std::size_t i = 0; i < center_params.size(); ++i) {
                    racy::elasticAverage(center_params[i]->data(),
                                         worker_params[i]->data(),
                                         center_params[i]->size(),
                                         config.elasticity);
                }
            }
            shadow_passes.fetch_add(1, std::memory_order_relaxed);
            if (all_done)
                break;
            // Pace: aim for sync_rate passes per worker step so the
            // shadow thread neither starves nor monopolizes the bus.
            const double target_passes = config.sync_rate *
                static_cast<double>(
                    total_steps.load(std::memory_order_relaxed) + 1) /
                static_cast<double>(config.num_workers);
            if (static_cast<double>(shadow_passes.load()) >
                target_passes) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(config.num_workers + 1);
    for (std::size_t t = 0; t < config.num_workers; ++t)
        threads.emplace_back(worker_fn, t);
    threads.emplace_back(shadow_fn);
    for (auto& t : threads)
        t.join();

    TrainResult result;
    result.steps = total_steps.load();
    double loss = 0.0;
    for (double l : final_losses)
        loss += l;
    result.final_train_loss =
        loss / static_cast<double>(config.num_workers);
    evaluateModel(center, dataset, eval_examples, result);
    return result;
}

} // namespace train
} // namespace recsim
