/**
 * @file
 * Free-function kernels over Tensor: GEMM variants, elementwise ops and
 * reductions. These are the compute primitives the nn layers are built
 * from; everything DLRM's forward/backward needs and nothing more.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace recsim {
namespace tensor {

/**
 * out = a (*) b for rank-2 tensors: [m, k] x [k, n] -> [m, n].
 * @p out is resized/overwritten. Cache-blocked, with the register-
 * blocked microkernel of the active SIMD tier inside the blocks: AVX-512
 * (zmm), AVX2/FMA or the scalar std::fma fallback (RECSIM_SIMD caps the
 * tier; see simd.h).
 *
 * Accumulation-order contract (all matmul variants): each output
 * element starts from the value already in @p out (zero here, since
 * out is resized) and adds its k terms in increasing p, every term as
 * ONE fused multiply-add — acc = fma(a[i,p], b[p,j], acc). The
 * contract is independent of cache blocks, register tiles, vector
 * width and thread count, so results are bitwise identical across all
 * of them (tested in test_tensor.cc against an explicit fma fold).
 */
void matmul(const Tensor& a, const Tensor& b, Tensor& out);

/** out = a^T (*) b: [k, m]^T x [k, n] -> [m, n]. */
void matmulTransA(const Tensor& a, const Tensor& b, Tensor& out);

/** out = a (*) b^T: [m, k] x [n, k]^T -> [m, n]. */
void matmulTransB(const Tensor& a, const Tensor& b, Tensor& out);

/**
 * Fused GEMM epilogue: out = a (*) b, then out[i, :] += bias, then
 * (if @p relu) out = max(out, 0) — applied inside the GEMM's final
 * k-block store instead of as separate passes over @p out, saving the
 * extra read+write memory traffic of addBiasRows / reluInPlace.
 * Bitwise identical to matmul + addBiasRows (+ reluInPlace): the
 * per-element float op sequence is unchanged, only when it runs moves.
 */
void matmulBiasAct(const Tensor& a, const Tensor& b, const Tensor& bias,
                   bool relu, Tensor& out);

/**
 * Fused weight + bias gradient of a Linear layer in one sweep:
 * dw = x^T (*) dy and db[j] = column sums of dy, computed together so
 * the grad GEMM's k-panels (which already stream dy) feed the bias
 * reduction without a second read pass over dy.
 * Bitwise identical to matmulTransA(x, dy, dw) + sumRows(dy, db): the
 * GEMM follows the ops.h accumulation contract unchanged, and db's
 * per-column adds run in increasing row order — exactly sumRows'
 * per-element sequence (the k-panels visit rows in increasing blocks,
 * and each column's whole reduction is done by the one output tile
 * that holds row 0 of that column).
 */
void matmulTransABiasGrad(const Tensor& x, const Tensor& dy, Tensor& dw,
                          Tensor& db);

/**
 * dReLU-fused input-grad GEMM: out = a (*) b^T, then — inside the final
 * k-panel store — out[i, j] is kept where mask[i, j] > 0 and zeroed
 * otherwise. @p mask is the forward *post-activation* output the
 * separate reluBackward pass would have read (same shape as out;
 * nullptr = plain matmulTransB). Bitwise identical to matmulTransB +
 * reluBackward(mask, out, out): the masked store writes exactly the
 * bits that pass would have produced, saving its extra read+write of
 * the gradient.
 */
void matmulTransBMask(const Tensor& a, const Tensor& b,
                      const Tensor* mask, Tensor& out);

/**
 * One column segment of a matmulTransBSegmented destination: @p width
 * consecutive rows of b (= columns of the product) land in @p out
 * [a.rows(), width]. With @p zero_bias the segment's final k-panel
 * store adds +0.0f to each element — reproducing bit-for-bit a
 * consumer that zero-initializes and then += the segment (the -0.0
 * case makes a raw store observable).
 */
struct GemmOutSegment
{
    Tensor* out = nullptr;
    std::size_t width = 0;
    bool zero_bias = false;
};

/**
 * Segmented out = a (*) b^T: the product's columns are split into
 * consecutive segments written directly into separate destination
 * tensors, instead of one [m, n] buffer a consumer would immediately
 * re-split (the interaction-flatten fusion). Segment widths must sum
 * to b.rows(). Each destination element carries the exact fma chain of
 * the unsegmented GEMM (same k terms, increasing p), so the bytes
 * written equal the corresponding slice of matmulTransB's output.
 */
void matmulTransBSegmented(const Tensor& a, const Tensor& b,
                           std::vector<GemmOutSegment>& segments);

/** Add row-vector @p bias [n] to every row of @p x [m, n], in place. */
void addBiasRows(Tensor& x, const Tensor& bias);

/** out[j] = sum over rows i of x[i, j]; out resized to [cols]. */
void sumRows(const Tensor& x, Tensor& out);

/** y += alpha * x, elementwise; shapes must match. */
void axpy(float alpha, const Tensor& x, Tensor& y);

/** x *= alpha, elementwise. */
void scale(Tensor& x, float alpha);

/** ReLU in place: x = max(x, 0). */
void reluInPlace(Tensor& x);

/**
 * dx = dy where forward activation y was > 0, else 0.
 * @p y is the *forward output* of the ReLU (post-activation).
 */
void reluBackward(const Tensor& y, const Tensor& dy, Tensor& dx);

/**
 * Logistic sigmoid in place, via the vectorized fast exp (simd.h):
 * within 1e-6 relative of the libm-exact value, overflow-safe for any
 * finite input, and bit-identical across thread counts and SIMD tiers.
 */
void sigmoidInPlace(Tensor& x);

/** Sum of all elements. */
double sumAll(const Tensor& x);

/** Dot product of two equal-shaped tensors. */
double dot(const Tensor& a, const Tensor& b);

/** L2 norm of all elements. */
double l2Norm(const Tensor& x);

/** Max absolute elementwise difference (for tests). */
double maxAbsDiff(const Tensor& a, const Tensor& b);

/** Gradient clipping: scale x so that its L2 norm is <= max_norm. */
void clipL2Norm(Tensor& x, double max_norm);

} // namespace tensor
} // namespace recsim
