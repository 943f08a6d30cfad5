/**
 * @file
 * Feature-interaction operators combining the bottom-MLP output with the
 * pooled sparse embeddings (Section III-A.3 of the paper): plain
 * concatenation, and the pairwise dot-product combiner that captures
 * dense-sparse and sparse-sparse interactions.
 */
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace recsim {
namespace nn {

/** Which combiner a model uses. */
enum class InteractionKind { Concat, DotProduct };

/**
 * Concatenation interaction: out = [dense | emb_0 | ... | emb_{S-1}].
 * Widths may differ per input.
 */
class CatInteraction
{
  public:
    /** Output width for the given input widths. */
    static std::size_t outWidth(std::size_t dense_width,
                                std::size_t num_sparse,
                                std::size_t emb_dim);

    /** Concatenate along the feature axis. */
    void forward(const tensor::Tensor& dense,
                 const std::vector<tensor::Tensor>& embs,
                 tensor::Tensor& out) const;

    /** Split @p dy back into per-input gradients. */
    void backward(const tensor::Tensor& dense,
                  const std::vector<tensor::Tensor>& embs,
                  const tensor::Tensor& dy, tensor::Tensor& d_dense,
                  std::vector<tensor::Tensor>& d_embs) const;
};

/**
 * DLRM-style pairwise dot-product interaction.
 *
 * The dense vector (projected to the embedding dimension d) and the S
 * pooled embeddings form F = S + 1 vectors per example; the output is
 * the dense vector concatenated with the F*(F-1)/2 pairwise dot products
 * (i < j), matching the paper's description of sparse-dense and
 * sparse-sparse interactions.
 */
class DotInteraction
{
  public:
    /** Output width: d + (S+1)S/2. */
    static std::size_t outWidth(std::size_t num_sparse,
                                std::size_t emb_dim);

    /**
     * Row ex of @p out is dense.row(ex) followed by the example's
     * pairwise dots, i-major over i < j with vector 0 the dense input,
     * each the fold acc += v_i[k] * v_j[k] from +0.0f over increasing k
     * with no fma (tensor::simd::pairwiseDotsSpan). Examples run in a
     * parallelFor whose grain depends only on (B, F, d), so the output
     * bits are the same at every pool size and SIMD tier.
     * @param dense [B, d]; must match the embedding dimension.
     * @param embs  S tensors of [B, d].
     * @param out   [B, outWidth(S, d)].
     */
    void forward(const tensor::Tensor& dense,
                 const std::vector<tensor::Tensor>& embs,
                 tensor::Tensor& out) const;

    /** Gradients wrt the dense input and every embedding input. */
    void backward(const tensor::Tensor& dense,
                  const std::vector<tensor::Tensor>& embs,
                  const tensor::Tensor& dy, tensor::Tensor& d_dense,
                  std::vector<tensor::Tensor>& d_embs) const;

    /**
     * Flatten-fused backward: consumes the two segment outputs the
     * top-MLP layer-0 input-grad GEMM wrote directly
     * (tensor::matmulTransBSegmented) instead of one flatten buffer.
     * @p d_dense already holds the pass-through columns (the GEMM's
     * zero-bias segment, bit-for-bit the zero + += of backward()) and
     * is accumulated into, not zeroed; @p d_pairs [B, F*(F-1)/2] holds
     * the pairwise-slot columns compactly. The pairwise scatter is the
     * exact loop of backward() reading the same bits, so the results
     * are bitwise identical.
     */
    void backwardFused(const tensor::Tensor& dense,
                       const std::vector<tensor::Tensor>& embs,
                       const tensor::Tensor& d_pairs,
                       tensor::Tensor& d_dense,
                       std::vector<tensor::Tensor>& d_embs) const;
};

} // namespace nn
} // namespace recsim
