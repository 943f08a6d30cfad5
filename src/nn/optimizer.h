/**
 * @file
 * Optimizers for the functional training substrate: plain SGD and
 * row-wise Adagrad (the standard sparse optimizer for DLRM embedding
 * tables). Both expose dense and sparse update paths so trainers can
 * update MLP parameters and embedding rows with one policy object.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "nn/embedding_bag.h"
#include "tensor/tensor.h"

namespace recsim {
namespace nn {

class Linear;
class Mlp;

/** Plain SGD: p -= lr * g. */
class Sgd
{
  public:
    explicit Sgd(float lr);

    /** Dense update. Shapes must match. */
    void step(tensor::Tensor& param, const tensor::Tensor& grad) const;

    /** Update both layers' weights and biases from accumulated grads. */
    void step(Mlp& mlp) const;
    void step(Linear& layer) const;

    /** Sparse row update for an embedding table. */
    void stepSparse(EmbeddingBag& bag, const SparseGrad& grad) const;

    float lr() const { return lr_; }
    void setLr(float lr) { lr_ = lr; }

  private:
    float lr_;
};

/**
 * Adagrad with one accumulator per parameter for dense tensors and one
 * accumulator per *row* for embedding tables (row-wise Adagrad), the
 * memory-efficient variant used for production embedding training.
 */
class Adagrad
{
  public:
    /**
     * @param lr  Base learning rate.
     * @param eps Denominator damping.
     */
    explicit Adagrad(float lr, float eps = 1e-8f);

    /**
     * Dense update. The accumulator is keyed by the parameter tensor's
     * address, so each tensor must keep a stable address across steps.
     */
    void step(tensor::Tensor& param, const tensor::Tensor& grad);

    void step(Mlp& mlp);
    void step(Linear& layer);

    /**
     * Row-wise sparse update. Creates @p bag's row accumulator on first
     * use, which inserts into a map shared by all tables; once
     * reserveRowState() has created it, the call only looks it up and
     * writes @p bag and its own accumulator, so different bags may be
     * updated concurrently.
     */
    void stepSparse(EmbeddingBag& bag, const SparseGrad& grad);

    /**
     * Create @p bag's zeroed row accumulator if it has none (serial).
     * The fused training step calls this for every table before the
     * backward wave that updates tables concurrently.
     */
    void reserveRowState(const EmbeddingBag& bag);

    float lr() const { return lr_; }
    void setLr(float lr) { lr_ = lr; }

    /**
     * Copy of the per-element accumulator for @p param; empty if the
     * parameter was never stepped. For checkpointing.
     */
    std::vector<float> denseState(const tensor::Tensor& param) const;

    /**
     * Install an accumulator for @p param (restore path). Must be
     * empty or exactly param.size() long.
     */
    void setDenseState(const tensor::Tensor& param,
                       std::vector<float> acc);

    /** Copy of the per-row accumulator for @p bag; empty if unused. */
    std::vector<float> rowState(const EmbeddingBag& bag) const;

    /** Install a row accumulator: empty or hashSize() long. */
    void setRowState(const EmbeddingBag& bag, std::vector<float> acc);

    /** Drop all accumulated state (fresh-start restore). */
    void resetState();

  private:
    float lr_;
    float eps_;
    std::unordered_map<const void*, std::vector<float>> dense_state_;
    std::unordered_map<const void*, std::vector<float>> row_state_;
};

} // namespace nn
} // namespace recsim
