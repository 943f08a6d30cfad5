/**
 * @file
 * Functional DLRM: the trainable model of Fig 3 — bottom MLP over dense
 * features, embedding tables over sparse features, feature interaction,
 * top MLP to a click logit. Used by the accuracy experiments (Fig 15)
 * and the functional integration tests; the *performance* of production
 * shapes is modeled analytically (src/cost) because terabyte tables
 * cannot be instantiated.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "model/config.h"
#include "nn/embedding_bag.h"
#include "nn/interaction.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "tensor/tensor.h"

namespace recsim {
namespace model {

/**
 * Trainable DLRM instance.
 *
 * One instance supports one in-flight forward/backward at a time; for
 * multi-threaded training each worker steps its own replica and trades
 * parameters with one shared instance (train/async_workers.h), racing
 * on it where the algorithm does (Hogwild, by design).
 */
class Dlrm
{
  public:
    /**
     * Instantiate a config. fatal()s if the embedding tables exceed
     * @p max_bytes (default 4 GiB) — production shapes must go through
     * the analytical cost models instead.
     */
    explicit Dlrm(const DlrmConfig& config, uint64_t seed = 1,
                  double max_bytes = 4.0 * (1ULL << 30));

    /**
     * The forward oracle: the forward primitives below, called in a
     * fixed order without a StepGraph; fills logits [B, 1]. The
     * serving engine's logits are checked against it, and
     * train::evaluateModel runs it.
     */
    void forward(const data::MiniBatch& batch, tensor::Tensor& logits);

    // --- Graph-walk execution -------------------------------------
    // Stepwise primitives mapping 1:1 onto the StepGraph nodes of one
    // training step (graph/step_graph.h): bottom_mlp.l{i} -> the
    // forward/backwardBottomLayer pair, emb.t{f} -> *Embedding,
    // proj.t{f} -> *Projection, and so on. Every training step runs
    // them through train::GraphExecutor's one dispatch, which tags an
    // obs span with each node id: visiting the nodes in graph order
    // (reversed for the backward half) is
    // train::GraphExecutor::serial(), and the forward half reproduces
    // forward() exactly. A grouped lookup node runs each member's
    // backwardEmbedding in group order. Each primitive assumes the
    // ones its node depends on already ran.
    // The MLP/projection primitives take @p fused from the node's
    // fused_epilogue flag (graph::fusePass): the bias (+ ReLU) runs as
    // the GEMM's epilogue. Bitwise identical either way.
    void forwardBottomLayer(std::size_t i, const data::MiniBatch& batch,
                            bool fused = false);
    void forwardEmbedding(std::size_t f, const data::MiniBatch& batch);
    /**
     * Grouped lookup for a fused EmbeddingLookup node: pool every table
     * in @p group with ONE parallelFor over the flattened (table,
     * example-chunk) units instead of one dispatch per table. Each
     * unit's bounds replicate exactly the chunks forwardEmbedding()'s
     * inner parallelFor would produce (EmbeddingBag::forwardChunkGrain,
     * chunks at multiples of the grain), and every output row is owned
     * by exactly one unit — so the result is bit-identical to calling
     * forwardEmbedding(f) for each member in order, at any thread count.
     */
    void forwardEmbeddingGroup(const std::vector<int>& group,
                               const data::MiniBatch& batch);
    void forwardProjection(std::size_t f, bool fused = false);
    void forwardInteraction();
    void forwardTopLayer(std::size_t i, bool fused = false);
    /** Loss + dLoss/dLogits; run between the two graph halves. */
    double lossBackward(const data::MiniBatch& batch);
    /**
     * The backward MLP/projection primitives take @p fused from the
     * node's fused_backward flag: the bias gradient rides the
     * weight-grad GEMM sweep and the dReLU mask is applied inside the
     * input-grad GEMM store (Linear::backwardFused). @p flatten (the
     * node's fused_flatten flag, top-MLP layer 0 + Interaction only)
     * additionally routes layer 0's input-grad GEMM straight into the
     * interaction backward's destinations
     * (tensor::matmulTransBSegmented), skipping the intermediate
     * flatten buffer; backwardInteraction(flatten) then consumes those
     * segment outputs. All paths are bitwise identical to the unfused
     * walk.
     */
    void backwardTopLayer(std::size_t i, bool fused = false,
                          bool flatten = false);
    void backwardInteraction(bool flatten = false);
    void backwardBottomLayer(std::size_t i, const data::MiniBatch& batch,
                             bool fused = false);
    void backwardProjection(std::size_t f, bool fused = false);
    void backwardEmbedding(std::size_t f, const data::MiniBatch& batch);

    // --- Embedding storage backends -------------------------------
    // Tables default to per-instance DramBackends (the historical flat
    // table). Backends only change byte accounting, never results:
    // lookups stay bitwise-identical across backends.

    /** Install @p backend on table @p f (nn/embedding_backend.h). */
    void setEmbeddingBackend(
        std::size_t f, std::shared_ptr<nn::EmbeddingBackend> backend);

    /**
     * Install a CachedBackend on every table, splitting a hot-tier
     * budget of @p hot_tier_bytes across tables with the same
     * allocator placement::planPlacement uses (densest whole tables
     * first, leftover as per-table row caches by traffic share) — so
     * the rows installed here are exactly the rows
     * cost::IterationModel::hotTierHitFraction priced, and measured
     * hit rates validate the analytic prediction. Labels are
     * "emb.t{f}", matching the StepGraph node ids, so obs channels
     * line up with the per-node telemetry.
     */
    void installCachedEmbeddingBackends(double hot_tier_bytes,
                                        std::size_t refresh_every = 8);

    /** Reset every table to a fresh DramBackend. */
    void installDramEmbeddingBackends();

    /** Zero dense grads and drop stored sparse grads. */
    void zeroGrad();

    // --- The optimizer node ---------------------------------------
    // step() is stepDense() plus stepTable() for every table, then
    // zeroGrad(). The fused training step
    // (train::GraphExecutor::trainStep) instead runs stepTable(f)
    // inside table f's backward node and stepDense() after the
    // backward waves. Neither order changes a bit: table f's update
    // writes only table f and its accumulator, which nothing else in
    // the step reads.

    /** Apply accumulated grads with SGD and clear them. */
    void step(const nn::Sgd& opt);

    /** Apply accumulated grads with Adagrad and clear them. */
    void step(nn::Adagrad& opt);

    /**
     * Apply table @p f's stored sparse gradient; grads stay stored.
     * Writes only table f (and, for Adagrad, its row accumulator), so
     * different tables may be updated concurrently — with Adagrad once
     * nn::Adagrad::reserveRowState() has created every accumulator.
     */
    void stepTable(std::size_t f, const nn::Sgd& opt);
    void stepTable(std::size_t f, nn::Adagrad& opt);

    /** Apply the MLP and projection grads; grads stay stored. */
    void stepDense(const nn::Sgd& opt);
    void stepDense(nn::Adagrad& opt);

    /**
     * Logits of the most recent forward pass ([B, 1]); valid after
     * forward() or a graph-walk forward. The serving engine reads
     * scores here after GraphExecutor::runForward() without paying
     * forward()'s copy.
     */
    const tensor::Tensor& logits() const { return logits_; }

    const DlrmConfig& config() const { return config_; }
    nn::Mlp& bottomMlp() { return *bottom_; }
    nn::Mlp& topMlp() { return *top_; }
    std::vector<nn::EmbeddingBag>& tables() { return tables_; }
    const std::vector<nn::SparseGrad>& sparseGrads() const
    {
        return sparse_grads_;
    }

    /**
     * Every dense layer: the bottom MLP's, the top MLP's, then the
     * projections. stepDense() and the async trainers' dense traffic
     * walk this list.
     */
    const std::vector<nn::Linear*>& denseLayers() const
    {
        return dense_layers_;
    }

    /** The weight and bias of every denseLayers() entry, in that
     *  order: the dense section of a checkpoint. */
    std::vector<tensor::Tensor*> denseParams();

    /** Total dense parameter count. */
    std::size_t numDenseParams() const;

  private:
    /** The shared bodies of the step() and stepDense() overloads. */
    template <typename Opt> void stepWith(Opt& opt);
    template <typename Opt> void stepDenseWith(Opt& opt);

    DlrmConfig config_;
    std::unique_ptr<nn::Mlp> bottom_;
    std::unique_ptr<nn::Mlp> top_;
    std::vector<nn::EmbeddingBag> tables_;
    /**
     * Mixed-dimension support: tables narrower than the shared width
     * project up through a learned Linear (null for full-width tables).
     */
    std::vector<std::unique_ptr<nn::Linear>> projections_;
    /** denseLayers(), listed once at construction; the layers live in
     *  the MLPs' fixed layer vectors and in projections_, so they
     *  never move. */
    std::vector<nn::Linear*> dense_layers_;
    nn::CatInteraction cat_;
    nn::DotInteraction dot_;

    // Forward caches for backward.
    tensor::Tensor bottom_out_;
    std::vector<tensor::Tensor> pooled_raw_;
    std::vector<tensor::Tensor> pooled_;
    tensor::Tensor interact_out_;
    tensor::Tensor logits_;
    std::vector<nn::SparseGrad> sparse_grads_;

    // Scratch.
    std::vector<tensor::Tensor> d_pooled_raw_;
    tensor::Tensor d_logits_;
    tensor::Tensor d_interact_;
    /** Flatten-fused dot backward: the pairwise-slot columns of the
     *  interaction gradient, written compactly by the top-MLP layer-0
     *  segmented input-grad GEMM (d_interact_ stays unwritten then). */
    tensor::Tensor d_interact_pairs_;
    tensor::Tensor d_bottom_out_;
    std::vector<tensor::Tensor> d_pooled_;
    tensor::Tensor d_dense_in_;
};

} // namespace model
} // namespace recsim
