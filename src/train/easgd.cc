#include "train/easgd.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "train/racy_traffic.h"
#include "util/logging.h"

namespace recsim {
namespace train {

TrainResult
trainEasgd(const model::DlrmConfig& model_config,
           data::SyntheticCtrDataset& dataset, const EasgdConfig& config,
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

    // Center model: dense params act as the dense PS; its embedding
    // tables act as the shared sparse PS (workers update them in place,
    // Hogwild-style across trainers, as production does).
    model::Dlrm center(model_config, base.model_seed);
    std::mutex center_mutex;

    const std::size_t shard = train_examples / config.num_workers;
    const std::size_t steps_per_worker =
        std::max<std::size_t>(shard / base.batch_size, 1) * base.epochs;

    std::atomic<std::size_t> total_steps{0};
    std::vector<double> final_losses(config.num_workers, 0.0);

    auto worker = [&](std::size_t tid) {
        model::Dlrm replica(model_config, base.model_seed);
        nn::Sgd sgd(base.learning_rate);
        auto center_params = center.denseParams();
        auto replica_params = replica.denseParams();
        const std::size_t begin = tid * shard;
        const std::size_t tail_start = steps_per_worker -
            std::max<std::size_t>(steps_per_worker / 10, 1);
        double tail_loss = 0.0;
        std::size_t tail_count = 0;

        for (std::size_t step = 0; step < steps_per_worker; ++step) {
            RECSIM_TRACE_SPAN("easgd.iteration");
            const std::size_t offset =
                begin + (step * base.batch_size) % std::max(shard, 1ul);
            data::MiniBatch batch =
                dataset.epochBatch(offset, base.batch_size);

            // Pull touched embedding rows from the shared tables.
            racy::pullTouchedRows(center, replica, batch);

            const double loss = replica.forwardBackward(batch);
            if (step >= tail_start) {
                tail_loss += loss;
                ++tail_count;
            }

            // Local dense step on the replica.
            sgd.step(replica.bottomMlp());
            sgd.step(replica.topMlp());
            // Sparse rows update the shared tables directly, without
            // locking (Hogwild-style across trainers).
            racy::pushSparseGrads(center, replica, base.learning_rate);
            replica.zeroGrad();

            // Periodic elastic sync with the center.
            if ((step + 1) % config.sync_period == 0) {
                RECSIM_TRACE_SPAN("easgd.sync");
                const float alpha = config.elasticity;
                std::lock_guard<std::mutex> lock(center_mutex);
                for (std::size_t i = 0; i < center_params.size(); ++i) {
                    float* c = center_params[i]->data();
                    float* x = replica_params[i]->data();
                    for (std::size_t j = 0;
                         j < center_params[i]->size(); ++j) {
                        const float diff = x[j] - c[j];
                        x[j] -= alpha * diff;
                        c[j] += alpha * diff;
                    }
                }
            }
            total_steps.fetch_add(1, std::memory_order_relaxed);
        }
        final_losses[tid] =
            tail_count ? tail_loss / static_cast<double>(tail_count)
                       : 0.0;
    };

    std::vector<std::thread> threads;
    threads.reserve(config.num_workers);
    for (std::size_t t = 0; t < config.num_workers; ++t)
        threads.emplace_back(worker, t);
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
