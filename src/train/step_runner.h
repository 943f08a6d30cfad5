/**
 * @file
 * Graph-walk execution of one training step: the real trainer's side of
 * the "one iteration, one source of truth" contract. GraphExecutor
 * walks the model's StepGraph (graph/step_graph.h), dispatching each
 * node to the matching Dlrm stepwise primitive and recording an obs
 * span under the node's id — the same ids the analytical nodeBreakdown()
 * and the DES's node_seconds report under, so measured, predicted and
 * simulated per-node times line up (bench/validation_graph_breakdown).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/dlrm.h"
#include "util/thread_pool.h"

namespace recsim {
namespace train {

/**
 * Execution of one training step over a schedule of the graph's
 * executable nodes (Gemm, EmbeddingLookup, Interaction — the nodes
 * dispatched to model primitives), chosen at construction:
 *
 * - the wave schedule (the constructor) runs independent nodes
 *   concurrently, and is what trainSingleThread and the serving engine
 *   run;
 * - the serial schedule (serial()) runs one node per wave in node
 *   order, reversed for the backward half, on the calling thread. It
 *   is the oracle the wave schedule is tested against, and the async
 *   trainers' workers share one to run their steps
 *   (train/async_workers.h): each worker's nodes then run on that
 *   worker's own thread.
 *
 * Both run every node through the same dispatch, so they differ only
 * in which nodes may overlap. The tests also check both against a
 * graph-free reference walk of Dlrm's primitives, which checks that
 * dispatch sends each node kind to the right primitive.
 *
 * The wave schedule partitions the executable nodes into forward
 * *wavefronts*: wave k holds every node whose longest dependency chain
 * through executable nodes has length k. Non-executable nodes (Loss
 * runs between the halves, Optimizer is applied after the waves, Comm
 * has no local work) are skipped by taking the transitive closure of
 * their edges, so e.g. a bottom-MLP layer gated on `comm.input` is
 * simply ready at step start. The backward half mirrors the waves over
 * the reversed edges.
 *
 * runStep() executes the waves in order, dispatching the nodes of one
 * wave concurrently on the thread pool — per-table EmbeddingBag
 * lookups, mixed-dimension projection GEMMs and bottom-MLP layers
 * overlap, which is where the paper's CPU iteration time goes
 * (Figs 9-11). trainStep() runs the same waves and also applies the
 * optimizer: each table's sparse update inside that table's backward
 * node, so the updates of different tables overlap in the backward
 * wave, then the dense update.
 *
 * Determinism: results are bit-identical to the serial schedule at
 * any pool size. Wave membership depends only on the graph; every node
 * writes only its own per-table / per-layer buffers inside the model;
 * and nested kernel parallelFors issued from a wave worker run inline
 * with the same chunk geometry as the serial schedule (ThreadPool
 * guarantee), so each node's arithmetic is unchanged — only the
 * interleaving across *independent* nodes varies.
 *
 * Obs spans: "model.fwd", "loss" and "model.bwd" open on the calling
 * thread under either schedule; per-node spans open on whichever
 * worker runs the node, landing on that thread's track.
 *
 * Flight recorder: while obs::FlightRecorder is enabled, every
 * dispatched node records one span per visit on a channel named by
 * the node id (interned once at construction), tagged with the
 * executor's step counter and the batch row count; so do the "loss"
 * and "optimizer" nodes. These spans are the measured side the
 * obs::DriftMonitor folds against cost::IterationModel predictions,
 * and a Chrome trace shows them (obs/trace.h). Disabled cost is one
 * relaxed atomic load per node.
 *
 * Sharing: the step methods are const, so several threads may run
 * steps of different models through one executor at once. They share
 * only the graph, which they read, and the atomic step counter, so
 * their recorder samples carry interleaved step ids.
 */
class GraphExecutor
{
  public:
    /**
     * Build the wavefront schedule for @p graph, which must stay
     * alive (and unmodified) for the executor's lifetime. Panics if
     * the graph fails validate(). Dispatches to @p pool — the global
     * kernel pool by default, whose inline-nesting rule keeps inner
     * kernels deterministic.
     */
    explicit GraphExecutor(const graph::StepGraph& graph,
                           util::ThreadPool& pool =
                               util::globalThreadPool());

    /**
     * Build the serial schedule for @p graph: one executable node per
     * wave in node order, reversed for the backward half, each run on
     * the calling thread with its inner kernels on the global pool.
     * Panics, naming the node, if node order puts an executable node
     * before one of its effective dependencies.
     */
    static GraphExecutor serial(const graph::StepGraph& graph);

    /**
     * Forward + loss + backward of one step. @p graph must match the
     * model's config (checked), and the return value / model state
     * are bit-identical to the serial schedule's.
     *
     * @return Mean BCE loss of the batch.
     */
    double runStep(model::Dlrm& model,
                   const data::MiniBatch& batch) const;

    /**
     * One whole training step: forward waves, loss, backward waves in
     * which each table's row-wise sparse update runs right after that
     * table's backward (a grouped lookup node updates each member
     * after the member's own backward), then the dense update and
     * zeroGrad(). The model afterwards is bit-identical to
     * runStep() followed by model.step(opt) under either schedule, at
     * any pool size: table f's update writes only table f and its
     * accumulator, nothing later in the step reads either, and each
     * row sees the same ops in the same order. Adagrad accumulators
     * are created serially before the first wave, so the concurrent
     * updates only look theirs up; each embedding backend instance
     * still runs on one thread at a time.
     *
     * Obs: "train.fwd_bwd" around the same spans as runStep(), each
     * "emb.t*" node span now including that table's update, followed
     * by "train.optimizer" > "optimizer" around the dense update.
     *
     * @return Mean BCE loss of the batch.
     */
    double trainStep(model::Dlrm& model, const data::MiniBatch& batch,
                     const nn::Sgd& opt) const;
    double trainStep(model::Dlrm& model, const data::MiniBatch& batch,
                     nn::Adagrad& opt) const;

    /**
     * Forward pass only: the forward waves, no loss and no backward —
     * the serving path (serve/engine.h). The model's logits afterwards
     * are bit-identical to Dlrm::forward() on the same batch at any
     * pool size. Usable with a full training graph or with a
     * graph::forwardSubgraph()-pruned one (both yield the same
     * forward waves, since pruning only drops nodes the schedule
     * already looked through).
     */
    void runForward(model::Dlrm& model,
                    const data::MiniBatch& batch) const;

    /** Forward waves: indices into the graph's nodes, per level. */
    const std::vector<std::vector<std::size_t>>& forwardWaves() const
    {
        return fwd_waves_;
    }

    /** Backward waves (reversed-edge levels), executed in order. */
    const std::vector<std::vector<std::size_t>>& backwardWaves() const
    {
        return bwd_waves_;
    }

  private:
    /** The optimizer trainStep() applies (file-local definition). */
    struct Optimizer;

    GraphExecutor(const graph::StepGraph& graph, util::ThreadPool& pool,
                  bool serial);

    /** The step id that tags this step's spans (0 while not
     *  recording). */
    uint64_t nextStep() const;
    /** Forward, loss and backward waves; with @p opt, each table's
     *  sparse update runs inside its backward node. */
    double runWaves(model::Dlrm& model, const data::MiniBatch& batch,
                    uint64_t step, const Optimizer* opt) const;
    double runTrainStep(model::Dlrm& model,
                        const data::MiniBatch& batch,
                        const Optimizer& opt) const;
    void runWave(const std::vector<std::size_t>& wave,
                 model::Dlrm& model, const data::MiniBatch& batch,
                 bool forward, uint64_t step,
                 const Optimizer* opt) const;
    void dispatch(std::size_t node_index, model::Dlrm& model,
                  const data::MiniBatch& batch, bool forward,
                  uint64_t step, const Optimizer* opt) const;

    const graph::StepGraph* graph_;
    util::ThreadPool* pool_;
    std::vector<std::vector<std::size_t>> fwd_waves_;
    std::vector<std::vector<std::size_t>> bwd_waves_;
    /** Flight-recorder channel per node, interned at construction. */
    std::vector<uint32_t> node_channels_;
    /** Steps/forwards issued, tagging recorder samples. */
    mutable std::atomic<uint64_t> steps_issued_{0};
};

} // namespace train
} // namespace recsim
