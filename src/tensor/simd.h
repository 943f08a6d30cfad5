/**
 * @file
 * Runtime SIMD dispatch and the vectorized exp approximation shared by
 * the tensor kernels (ops.cc).
 *
 * Dispatch contract: the library is compiled for the baseline ISA; the
 * vector kernels are per-function `target(...)` specializations. One
 * tier is chosen once, at startup, and every dispatch site reads it:
 *  - scalar: the portable loops;
 *  - avx2:   AVX2/FMA kernels for the GEMM core and every span kernel;
 *  - avx512: an AVX-512F (zmm) GEMM register tile; the span kernels
 *            (sigmoid, ReLU mask, dense Adagrad/SGD, pairwise dots) and
 *            the column sums keep their AVX2 versions at this tier.
 * The tier is the highest the CPU supports (`__builtin_cpu_supports`),
 * capped by RECSIM_SIMD=scalar|avx2|avx512 when that is set (see
 * configuredTier()); CI runs the suite under each cap. Every kernel
 * computes bit-identical results at every tier: the scalar fallbacks
 * use std::fma where the vector code uses vfmadd, and all paths share
 * the per-element operation order documented on each kernel, so
 * switching tiers — like switching thread counts — never changes a
 * single bit. A NaN output is NaN at every tier (the GEMM's ReLU
 * epilogue keeps it, as std::max(acc, 0.0f) does); only its payload
 * may differ.
 *
 * Fast exp: a Cephes-style degree-5 polynomial after base-2 range
 * reduction, max relative error <= 1e-6 against libm over the clamped
 * domain (tested by a dense sweep in test_tensor.cc). Inputs are
 * clamped to [-87.336544, 88.376259] so the result saturates at the
 * smallest-normal / near-FLT_MAX ends instead of producing denormals
 * or infinities.
 */
#pragma once

#include <cstddef>

namespace recsim {
namespace tensor {
namespace simd {

/** The kernel tiers, lowest first; each runs on a superset of the ISA
 *  of the one below it. */
enum class Tier { Scalar, Avx2, Avx512 };

/**
 * The tier's one spelling — "scalar", "avx2" or "avx512" — shared by
 * RECSIM_SIMD, activeKernels() and the host blocks of the benchmarks.
 */
const char* tierName(Tier tier);

/**
 * The highest tier this build and CPU run: avx512 needs avx512f (plus
 * avx2 and fma for the span kernels), avx2 needs avx2 and fma.
 */
Tier supportedTier();

/**
 * The tier RECSIM_SIMD asks for, capped at supportedTier(). Unset or
 * empty means supportedTier(); a value other than the three tier names
 * is a fatal() error. Reads the environment on every call (tests
 * setenv() and call it); dispatch goes through activeTier().
 */
Tier configuredTier();

/**
 * The tier every kernel runs: configuredTier(), resolved once during
 * static initialization (so a bad RECSIM_SIMD fails at startup) and
 * cached.
 */
Tier activeTier();

/** tierName(activeTier()). */
const char* activeKernels();

/**
 * Scalar reference fast exp — the exact per-lane arithmetic of the
 * vector path (same fma sequence, same rounding trick), used by the
 * scalar fallbacks and by tail elements of vector loops.
 */
float fastExpScalar(float x);

/** Dispatching fast exp for a single value (== fastExpScalar). */
float fastExp(float x);

/**
 * In-place logistic sigmoid over a span: x[i] = 1 / (1 + exp(-x[i]))
 * with the fast exp. Branchless and overflow-safe via the exp clamp.
 * No threading — callers chunk via parallelFor; scalar and AVX2 paths
 * are bit-identical.
 */
void sigmoidSpan(float* x, std::size_t n);

/**
 * ReLU-backward mask over a span: dx[i] = y[i] > 0 ? dy[i] : 0, where
 * @p y is the forward *post-activation* output. The AVX2 path selects
 * dy's bits through an all-ones/all-zeros compare mask (a > 0 compare
 * ANDed with dy), which yields exactly dy or +0.0f per lane — the same
 * bits the scalar ternary produces — so the paths are bit-identical,
 * including for -0.0 and NaN inputs in y. dy and dx may alias (the
 * in-place case); y must not alias dx. No threading — callers chunk
 * via parallelFor.
 */
void reluMaskSpan(const float* y, const float* dy, float* dx,
                  std::size_t n);

/**
 * Dense Adagrad over a span, per element exactly the float ops of
 *   acc[i] += g[i] * g[i];
 *   p[i] -= lr * g[i] / (std::sqrt(acc[i]) + eps);
 * in that order, each correctly rounded and none fused (the tensor
 * sources build with -ffp-contract=off, so the AVX2 mul + add pairs
 * are not contracted into an fma). The AVX2 lanes, the scalar tail and
 * the scalar fallback are therefore bit-identical to that loop. No
 * threading — callers chunk via parallelFor.
 */
void adagradSpan(float* p, float* acc, const float* g, std::size_t n,
                 float lr, float eps);

/**
 * Dense SGD over a span: p[i] -= lr * g[i], one multiply then one
 * subtract per element (not fused), bit-identical across paths.
 */
void sgdSpan(float* p, const float* g, std::size_t n, float lr);

/**
 * One example's pairwise dot products (the DLRM dot interaction): for
 * the @p f vectors rows[0 .. f) of @p d floats each, writes the
 * f * (f - 1) / 2 dots of the pairs i < j to @p out, i-major —
 * <v0, v1>, <v0, v2>, ..., <v0, v_{f-1}>, <v1, v2>, ... Each dot is
 * exactly the fold
 *   float acc = 0.0f;
 *   for (k = 0; k < d; ++k) acc += rows[i][k] * rows[j][k];
 * one rounded multiply and one rounded add per term, never an fma.
 * The scalar tier is that loop. The vector tiers put the partner
 * vectors j in lanes: they copy the example's vectors once into a
 * thread-local transposed [d x F_pad] scratch (F rounded up to a
 * multiple of 8), broadcast rows[i][k] for up to 8 rows against one
 * 8-lane chunk of partners per k pass, so 8 add chains overlap, and
 * mask the stores to the lanes i < j < f.
 * Every lane runs the same fold, so every tier gives the same bits; an
 * input NaN or Inf gives NaN at the same outputs, whose payloads may
 * differ. The scratch only grows, so steady-state calls do not
 * allocate. No threading — callers chunk examples via parallelFor.
 */
void pairwiseDotsSpan(const float* const* rows, std::size_t f,
                      std::size_t d, float* out);

} // namespace simd
} // namespace tensor
} // namespace recsim
