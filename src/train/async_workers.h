/**
 * @file
 * The worker loop the asynchronous trainers (Hogwild, EASGD,
 * ShadowSync) share. It owns the shared model and one seed-identical
 * replica per worker, each worker's shard of the training split and
 * its batch offsets, the threads, the step, the final-10% loss and the
 * TrainResult. A trainer adds only what a worker pulls before a step
 * and updates or pushes after it, plus, for ShadowSync, a thread of
 * its own.
 *
 * Every step runs through one GraphExecutor::serial() over the model's
 * StepGraph, shared by all workers: each node runs on the worker's own
 * thread with its inner kernels on the global pool, and its obs span
 * lands on the worker's track.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>

#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/dlrm.h"
#include "train/step_runner.h"
#include "train/trainer.h"

namespace recsim {
namespace train {

class AsyncWorkers
{
  public:
    /** A trainer's part of an iteration, run on worker w's thread. */
    struct Hooks
    {
        /** Span around each iteration, e.g. "hogwild.iteration",
         *  tagged with the worker's step and the batch rows. */
        const char* iteration_span = nullptr;
        /** Before the step: bring replica w up to date for the batch. */
        std::function<void(std::size_t w, const data::MiniBatch& batch)>
            pull;
        /** After the step, before its grads are cleared: apply them.
         *  @p step counts replica w's steps from 0. */
        std::function<void(std::size_t w, std::size_t step)> update;
    };

    /**
     * The last @p eval_examples of the materialized @p dataset are
     * held out; worker w trains on the w-th of @p num_workers equal
     * shards of the rest. Of @p base, only batch_size, epochs and
     * model_seed are read.
     */
    AsyncWorkers(const model::DlrmConfig& model_config,
                 data::SyntheticCtrDataset& dataset,
                 const TrainConfig& base, std::size_t num_workers,
                 std::size_t eval_examples);

    AsyncWorkers(const AsyncWorkers&) = delete;
    AsyncWorkers& operator=(const AsyncWorkers&) = delete;

    /** What every worker trades parameters with: the Hogwild master,
     *  the EASGD/ShadowSync center. */
    model::Dlrm& shared() { return shared_; }
    model::Dlrm& replica(std::size_t w) { return replicas_[w]; }
    std::size_t size() const { return replicas_.size(); }

    /** Steps finished so far, over all workers. */
    std::size_t stepsDone() const { return steps_done_.load(); }
    /** Workers past their last step. */
    std::size_t workersDone() const { return workers_done_.load(); }

    /**
     * Call once. Each worker runs max(shard / batch_size, 1) * epochs
     * iterations of: the iteration span, the batch at its next offset,
     * hooks.pull, the step, hooks.update, zeroGrad(). @p background,
     * if set, runs on one more thread. Once every thread has joined,
     * shared() is evaluated on the held-out split; final_train_loss is
     * the mean over workers of each worker's tailLoss().
     */
    TrainResult run(const Hooks& hooks,
                    const std::function<void()>& background = {});

  private:
    data::SyntheticCtrDataset& dataset_;
    const std::size_t batch_size_;
    const std::size_t eval_examples_;
    std::size_t shard_ = 0;
    std::size_t steps_per_worker_ = 0;
    const graph::StepGraph graph_;
    const GraphExecutor executor_;
    model::Dlrm shared_;
    std::deque<model::Dlrm> replicas_;
    std::atomic<std::size_t> steps_done_{0};
    std::atomic<std::size_t> workers_done_{0};
};

} // namespace train
} // namespace recsim
