#include "train/async_workers.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "util/logging.h"

namespace recsim {
namespace train {

AsyncWorkers::AsyncWorkers(const model::DlrmConfig& model_config,
                           data::SyntheticCtrDataset& dataset,
                           const TrainConfig& base,
                           std::size_t num_workers,
                           std::size_t eval_examples)
    : dataset_(dataset),
      batch_size_(base.batch_size),
      eval_examples_(eval_examples),
      graph_(graph::buildModelStepGraph(model_config)),
      executor_(GraphExecutor::serial(graph_)),
      shared_(model_config, base.model_seed)
{
    RECSIM_ASSERT(num_workers >= 1, "need at least one worker");
    RECSIM_ASSERT(batch_size_ > 0, "TrainConfig::batch_size must be "
                  "positive, got 0");
    RECSIM_ASSERT(dataset.materializedSize() > eval_examples,
                  "materialize() the dataset before training");
    shard_ = (dataset.materializedSize() - eval_examples) / num_workers;
    steps_per_worker_ =
        std::max<std::size_t>(shard_ / batch_size_, 1) * base.epochs;
    for (std::size_t w = 0; w < num_workers; ++w)
        replicas_.emplace_back(model_config, base.model_seed);
}

TrainResult
AsyncWorkers::run(const Hooks& hooks,
                  const std::function<void()>& background)
{
    std::vector<double> tail_losses(size(), 0.0);
    // Interned before any worker starts: the three trainers share this
    // one span site, so a per-site cache would mix their names.
    const uint32_t iteration_channel =
        obs::FlightRecorder::global().internChannel(hooks.iteration_span);
    const auto rows = static_cast<uint32_t>(batch_size_);
    auto work = [&](std::size_t w) {
        std::vector<double> losses;
        losses.reserve(steps_per_worker_);
        for (std::size_t step = 0; step < steps_per_worker_; ++step) {
            const obs::TraceSpan iteration(iteration_channel, step, rows);
            const data::MiniBatch batch = dataset_.epochBatch(
                w * shard_ +
                    (step * batch_size_) % std::max<std::size_t>(shard_, 1),
                batch_size_);
            hooks.pull(w, batch);
            losses.push_back(executor_.runStep(replicas_[w], batch));
            hooks.update(w, step);
            replicas_[w].zeroGrad();
            ++steps_done_;
        }
        ++workers_done_;
        tail_losses[w] = tailLoss(losses);
    };
    std::vector<std::thread> threads;
    threads.reserve(size() + 1);
    for (std::size_t w = 0; w < size(); ++w)
        threads.emplace_back(work, w);
    if (background)
        threads.emplace_back(background);
    for (auto& t : threads)
        t.join();

    TrainResult result;
    result.steps = stepsDone();
    for (double l : tail_losses)
        result.final_train_loss += l;
    result.final_train_loss /= static_cast<double>(size());
    evaluateModel(shared_, dataset_, eval_examples_, result);
    return result;
}

} // namespace train
} // namespace recsim
