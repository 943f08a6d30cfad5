#include "tensor/ops.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "tensor/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

/** Non-aliasing pointer hint for the GEMM inner loops. */
#if defined(__GNUC__) || defined(__clang__)
#  define RECSIM_RESTRICT __restrict__
#else
#  define RECSIM_RESTRICT
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#  define RECSIM_SIMD_X86 1
#  include <immintrin.h>
#endif

namespace recsim {
namespace tensor {

namespace {

void
requireRank2(const Tensor& t, const char* what)
{
    RECSIM_ASSERT(t.rank() == 2, "{} requires rank-2 tensor, got {}",
                  what, t.shapeString());
}

/**
 * Cache blocking. The GEMM core splits the output into 2-D tiles of at
 * most kTileRows x kTileCols. A tile's row block holds a whole DLRM
 * batch, so the tile's k x cols weight sub-panel (512 KiB at k = 1024)
 * is fetched into L2 once and reused by all of the tile's rows; a DLRM
 * layer's whole weight (2-4 MiB) would not stay in a 2 MiB L2. Inside
 * a tile, k is swept in kKc-deep panels, and the register tiles re-read
 * a panel's B block (64 KiB at 128 columns) once per 6 rows (AVX2) or
 * 12 rows (AVX-512).
 * Fixed constants, not tuned per shape: tiling only changes *which*
 * terms are in cache and which thread computes an element, never the
 * order terms are added per output element (the fma fold documented
 * in ops.h), so results are bit-identical to an unblocked loop
 * following the same contract.
 */
constexpr std::size_t kKc = 128;
constexpr std::size_t kTileRows = 240;
constexpr std::size_t kTileCols = 128;
/** Tiles a GEMM is split into when it has enough work for them. */
constexpr std::size_t kMinTiles = 4;

/** Minimum per-chunk work (a GEMM tile's FLOPs included) so chunk
 *  dispatch never dominates. */
constexpr std::size_t kMinWorkPerChunk = std::size_t(1) << 15;
/** Elementwise kernels: elements per chunk. */
constexpr std::size_t kElemGrain = std::size_t(1) << 14;

/** Rows per chunk targeting kMinWorkPerChunk scalar ops per chunk. */
std::size_t
rowGrain(std::size_t work_per_row)
{
    return std::max<std::size_t>(
        1, kMinWorkPerChunk / std::max<std::size_t>(work_per_row, 1));
}

/**
 * Register-tile shape of the AVX2 microkernel: 6 rows x 16 cols. Tile
 * geometry (tileGrid) rounds to it at every tier, so a shape is cut
 * into the same tiles whichever block kernel runs inside them.
 */
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;

std::size_t
ceilDiv(std::size_t a, std::size_t b)
{
    return (a + b - 1) / b;
}

/**
 * Scalar GEMM block, the portable fallback. Computes, for output rows
 * [i0, i1) and columns [jj, jj + jn), od[i, jj+j] (+)= sum over one
 * pk-deep k-panel of fma(a(i, p), b(p, j), acc). The operands are the
 * panel's blocks, positioned at their first element: a(i, p) =
 * apan[(i - i0) * a_rs + p * a_cs] and b(p, j) = bpan[p * ldb + j], so
 * a block may sit inside the caller's matrix or in a tile's scratch
 * copy of it.
 *
 * Accumulation-order contract (shared with the vector kernels): per
 * output element the accumulator starts from the value in od, adds
 * terms in increasing p, each as one fused multiply-add (std::fma here
 * == vfmadd there: both correctly rounded), and stores once per
 * k-panel. When @p bias is non-null and this is the @p last k-panel,
 * the epilogue adds bias[j] (one plain add) and, if @p relu, clamps at
 * zero — exactly the per-element ops of addBiasRows + reluInPlace.
 * When @p mask is non-null (a [*, n] tensor addressed like od), the
 * final k-panel store keeps acc where mask[i, j] > 0 and writes +0.0f
 * otherwise — the exact ternary reluBackward would apply to the stored
 * value, so masking here instead of in a second pass changes no bits.
 */
void
gemmBlockScalar(const float* RECSIM_RESTRICT apan, std::size_t a_rs,
                std::size_t a_cs, const float* RECSIM_RESTRICT bpan,
                std::size_t ldb, float* RECSIM_RESTRICT od, std::size_t n,
                std::size_t i0, std::size_t i1, std::size_t jj,
                std::size_t jn, std::size_t pk, bool last,
                const float* RECSIM_RESTRICT bias, bool relu,
                const float* RECSIM_RESTRICT mask)
{
    const bool epilogue = bias != nullptr && last;
    const bool masked = mask != nullptr && last;
    for (std::size_t i = i0; i < i1; ++i) {
        const float* RECSIM_RESTRICT ab = apan + (i - i0) * a_rs;
        float* RECSIM_RESTRICT orow = od + i * n + jj;
        const float* RECSIM_RESTRICT mrow =
            masked ? mask + i * n + jj : nullptr;
        for (std::size_t jt = 0; jt < jn; jt += 8) {
            const std::size_t w = std::min<std::size_t>(8, jn - jt);
            float acc[8];
            for (std::size_t u = 0; u < w; ++u)
                acc[u] = orow[jt + u];
            for (std::size_t p = 0; p < pk; ++p) {
                const float av = ab[p * a_cs];
                const float* RECSIM_RESTRICT brow = bpan + p * ldb + jt;
                for (std::size_t u = 0; u < w; ++u)
                    acc[u] = std::fma(av, brow[u], acc[u]);
            }
            if (epilogue) {
                for (std::size_t u = 0; u < w; ++u) {
                    acc[u] += bias[jj + jt + u];
                    if (relu)
                        acc[u] = std::max(acc[u], 0.0f);
                }
            }
            if (masked) {
                for (std::size_t u = 0; u < w; ++u)
                    acc[u] = mrow[jt + u] > 0.0f ? acc[u] : 0.0f;
            }
            for (std::size_t u = 0; u < w; ++u)
                orow[jt + u] = acc[u];
        }
    }
}

#if defined(RECSIM_SIMD_X86)

/**
 * AVX2/FMA GEMM block: kMr x kNr register tiles (12 ymm accumulators,
 * two b loads shared across the 6 rows per k step) over the same
 * cache block as gemmBlockScalar, with 8-wide and scalar column tails
 * and a 1-row tail; every path follows the same per-element contract as
 * gemmBlockScalar, so the two are bitwise interchangeable. The dReLU
 * mask is applied as a > 0 compare ANDed into the accumulator (dy's
 * exact bits or +0.0f per lane — what the scalar ternary stores).
 */
__attribute__((target("avx2,fma"))) void
gemmBlockAvx2(const float* RECSIM_RESTRICT apan, std::size_t a_rs,
              std::size_t a_cs, const float* RECSIM_RESTRICT bpan,
              std::size_t ldb, float* RECSIM_RESTRICT od, std::size_t n,
              std::size_t i0, std::size_t i1, std::size_t jj,
              std::size_t jn, std::size_t pk, bool last,
              const float* RECSIM_RESTRICT bias, bool relu,
              const float* RECSIM_RESTRICT mask)
{
    const bool epilogue = bias != nullptr && last;
    const bool masked = mask != nullptr && last;
    const __m256 zero = _mm256_setzero_ps();

    std::size_t i = i0;
    for (; i + kMr <= i1; i += kMr) {
        const float* RECSIM_RESTRICT ab = apan + (i - i0) * a_rs;
        float* RECSIM_RESTRICT obase = od + i * n + jj;
        const float* RECSIM_RESTRICT mbase =
            masked ? mask + i * n + jj : nullptr;
        std::size_t jt = 0;
        for (; jt + 16 <= jn; jt += 16) {
            __m256 acc[kMr][2];
            for (std::size_t r = 0; r < kMr; ++r) {
                acc[r][0] = _mm256_loadu_ps(obase + r * n + jt);
                acc[r][1] = _mm256_loadu_ps(obase + r * n + jt + 8);
            }
            for (std::size_t p = 0; p < pk; ++p) {
                const float* RECSIM_RESTRICT brow = bpan + p * ldb + jt;
                const __m256 b0 = _mm256_loadu_ps(brow);
                const __m256 b1 = _mm256_loadu_ps(brow + 8);
                for (std::size_t r = 0; r < kMr; ++r) {
                    const __m256 av =
                        _mm256_broadcast_ss(ab + r * a_rs + p * a_cs);
                    acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
                    acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
                }
            }
            if (epilogue) {
                const __m256 bv0 = _mm256_loadu_ps(bias + jj + jt);
                const __m256 bv1 = _mm256_loadu_ps(bias + jj + jt + 8);
                for (std::size_t r = 0; r < kMr; ++r) {
                    acc[r][0] = _mm256_add_ps(acc[r][0], bv0);
                    acc[r][1] = _mm256_add_ps(acc[r][1], bv1);
                    if (relu) {
                        acc[r][0] = _mm256_max_ps(acc[r][0], zero);
                        acc[r][1] = _mm256_max_ps(acc[r][1], zero);
                    }
                }
            }
            if (masked) {
                for (std::size_t r = 0; r < kMr; ++r) {
                    const float* RECSIM_RESTRICT mrow =
                        mbase + r * n + jt;
                    acc[r][0] = _mm256_and_ps(
                        _mm256_cmp_ps(_mm256_loadu_ps(mrow), zero,
                                      _CMP_GT_OQ),
                        acc[r][0]);
                    acc[r][1] = _mm256_and_ps(
                        _mm256_cmp_ps(_mm256_loadu_ps(mrow + 8), zero,
                                      _CMP_GT_OQ),
                        acc[r][1]);
                }
            }
            for (std::size_t r = 0; r < kMr; ++r) {
                _mm256_storeu_ps(obase + r * n + jt, acc[r][0]);
                _mm256_storeu_ps(obase + r * n + jt + 8, acc[r][1]);
            }
        }
        for (; jt + 8 <= jn; jt += 8) {
            __m256 acc[kMr];
            for (std::size_t r = 0; r < kMr; ++r)
                acc[r] = _mm256_loadu_ps(obase + r * n + jt);
            for (std::size_t p = 0; p < pk; ++p) {
                const __m256 b0 = _mm256_loadu_ps(bpan + p * ldb + jt);
                for (std::size_t r = 0; r < kMr; ++r) {
                    const __m256 av =
                        _mm256_broadcast_ss(ab + r * a_rs + p * a_cs);
                    acc[r] = _mm256_fmadd_ps(av, b0, acc[r]);
                }
            }
            if (epilogue) {
                const __m256 bv = _mm256_loadu_ps(bias + jj + jt);
                for (std::size_t r = 0; r < kMr; ++r) {
                    acc[r] = _mm256_add_ps(acc[r], bv);
                    if (relu)
                        acc[r] = _mm256_max_ps(acc[r], zero);
                }
            }
            if (masked) {
                for (std::size_t r = 0; r < kMr; ++r)
                    acc[r] = _mm256_and_ps(
                        _mm256_cmp_ps(
                            _mm256_loadu_ps(mbase + r * n + jt), zero,
                            _CMP_GT_OQ),
                        acc[r]);
            }
            for (std::size_t r = 0; r < kMr; ++r)
                _mm256_storeu_ps(obase + r * n + jt, acc[r]);
        }
        if (jt < jn)
            gemmBlockScalar(ab, a_rs, a_cs, bpan + jt, ldb, od, n, i,
                            i + kMr, jj + jt, jn - jt, pk, last, bias,
                            relu, mask);
    }
    for (; i < i1; ++i) {
        const float* RECSIM_RESTRICT ab = apan + (i - i0) * a_rs;
        float* RECSIM_RESTRICT orow = od + i * n + jj;
        const float* RECSIM_RESTRICT mrow =
            masked ? mask + i * n + jj : nullptr;
        std::size_t jt = 0;
        for (; jt + 16 <= jn; jt += 16) {
            __m256 a0 = _mm256_loadu_ps(orow + jt);
            __m256 a1 = _mm256_loadu_ps(orow + jt + 8);
            for (std::size_t p = 0; p < pk; ++p) {
                const float* RECSIM_RESTRICT brow = bpan + p * ldb + jt;
                const __m256 av =
                    _mm256_broadcast_ss(ab + p * a_cs);
                a0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), a0);
                a1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8),
                                     a1);
            }
            if (epilogue) {
                a0 = _mm256_add_ps(a0, _mm256_loadu_ps(bias + jj + jt));
                a1 = _mm256_add_ps(a1,
                                   _mm256_loadu_ps(bias + jj + jt + 8));
                if (relu) {
                    a0 = _mm256_max_ps(a0, zero);
                    a1 = _mm256_max_ps(a1, zero);
                }
            }
            if (masked) {
                a0 = _mm256_and_ps(
                    _mm256_cmp_ps(_mm256_loadu_ps(mrow + jt), zero,
                                  _CMP_GT_OQ),
                    a0);
                a1 = _mm256_and_ps(
                    _mm256_cmp_ps(_mm256_loadu_ps(mrow + jt + 8), zero,
                                  _CMP_GT_OQ),
                    a1);
            }
            _mm256_storeu_ps(orow + jt, a0);
            _mm256_storeu_ps(orow + jt + 8, a1);
        }
        if (jt < jn)
            gemmBlockScalar(ab, a_rs, a_cs, bpan + jt, ldb, od, n, i,
                            i + 1, jj + jt, jn - jt, pk, last, bias,
                            relu, mask);
    }
}

/**
 * Rows of the zmm register tile. A row block is cut into kZmmRows-row
 * tiles and, when kZmmRows does not divide it, one tile of the 1 ..
 * kZmmRows - 1 rows left, each row count its own instantiation.
 */
constexpr std::size_t kZmmRows = 12;

/**
 * One zmm register tile of the AVX-512 GEMM block: R rows x V 16-float
 * vectors of output columns (R * V accumulators, up to 12 x 2), over
 * one pk-deep k-panel. @p ab and @p brow point at the tile's first A
 * row and first B column; @p obase (and @p mbase, if non-null) at its
 * first output (mask) element. Only the lanes in @p tail of the last
 * vector are loaded or stored — masked, so the tile never touches a
 * column past the block and needs no narrower column path. The
 * epilogues run the AVX2 kernel's ops lane for lane: add bias (when
 * @p bias is non-null), max with +0 (if @p relu), and a > 0 compare of
 * the mask that keeps the accumulator's bits or stores +0.0f.
 */
template <std::size_t R, std::size_t V>
__attribute__((target("avx512f"), always_inline)) inline void
zmmTile(const float* RECSIM_RESTRICT ab, std::size_t a_rs,
        std::size_t a_cs, const float* RECSIM_RESTRICT brow,
        std::size_t ldb, float* RECSIM_RESTRICT obase, std::size_t n,
        const float* RECSIM_RESTRICT mbase,
        const float* RECSIM_RESTRICT bias, bool relu, std::size_t pk,
        __mmask16 tail)
{
    __mmask16 lanes[V];
    for (std::size_t v = 0; v < V; ++v)
        lanes[v] = v + 1 < V ? __mmask16(0xFFFF) : tail;
    const __m512 zero = _mm512_setzero_ps();
    __m512 acc[R][V];
    for (std::size_t r = 0; r < R; ++r)
        for (std::size_t v = 0; v < V; ++v)
            acc[r][v] =
                _mm512_maskz_loadu_ps(lanes[v], obase + r * n + 16 * v);
    for (std::size_t p = 0; p < pk; ++p) {
        __m512 b[V];
        for (std::size_t v = 0; v < V; ++v)
            b[v] = _mm512_maskz_loadu_ps(lanes[v],
                                         brow + p * ldb + 16 * v);
        for (std::size_t r = 0; r < R; ++r) {
            const __m512 av = _mm512_set1_ps(ab[r * a_rs + p * a_cs]);
            for (std::size_t v = 0; v < V; ++v)
                acc[r][v] = _mm512_fmadd_ps(av, b[v], acc[r][v]);
        }
    }
    if (bias != nullptr) {
        for (std::size_t v = 0; v < V; ++v) {
            const __m512 bv =
                _mm512_maskz_loadu_ps(lanes[v], bias + 16 * v);
            for (std::size_t r = 0; r < R; ++r) {
                acc[r][v] = _mm512_add_ps(acc[r][v], bv);
                // maskz form: GCC 12's _mm512_max_ps passes an
                // undefined source that -Wmaybe-uninitialized flags.
                if (relu)
                    acc[r][v] =
                        _mm512_maskz_max_ps(lanes[v], acc[r][v], zero);
            }
        }
    }
    if (mbase != nullptr) {
        for (std::size_t r = 0; r < R; ++r)
            for (std::size_t v = 0; v < V; ++v)
                acc[r][v] = _mm512_maskz_mov_ps(
                    _mm512_cmp_ps_mask(
                        _mm512_maskz_loadu_ps(lanes[v],
                                              mbase + r * n + 16 * v),
                        zero, _CMP_GT_OQ),
                    acc[r][v]);
    }
    for (std::size_t r = 0; r < R; ++r)
        for (std::size_t v = 0; v < V; ++v)
            _mm512_mask_storeu_ps(obase + r * n + 16 * v, lanes[v],
                                  acc[r][v]);
}

/** The lanes of a 16-float vector that hold @p width (>= 1) columns. */
inline __mmask16
tailLanes(std::size_t width)
{
    return width >= 16 ? __mmask16(0xFFFF)
                       : static_cast<__mmask16>((1u << width) - 1);
}

/**
 * R rows x all @p jn columns of an AVX-512 GEMM block: 32-column tiles
 * while more than 16 columns are left (the second vector masked to
 * what is left), then one masked 16-column tile. Arguments as in
 * zmmTile, positioned at the block's first column; @p bias and
 * @p mbase are null when their epilogue does not run on this panel.
 */
template <std::size_t R>
__attribute__((target("avx512f"))) void
zmmRows(const float* RECSIM_RESTRICT ab, std::size_t a_rs,
        std::size_t a_cs, const float* RECSIM_RESTRICT bpan,
        std::size_t ldb, float* RECSIM_RESTRICT obase, std::size_t n,
        const float* RECSIM_RESTRICT mbase,
        const float* RECSIM_RESTRICT bias, bool relu, std::size_t jn,
        std::size_t pk)
{
    std::size_t jt = 0;
    for (; jt + 16 < jn; jt += 32)
        zmmTile<R, 2>(ab, a_rs, a_cs, bpan + jt, ldb, obase + jt, n,
                      mbase != nullptr ? mbase + jt : nullptr,
                      bias != nullptr ? bias + jt : nullptr, relu, pk,
                      tailLanes(jn - jt - 16));
    if (jt < jn)
        zmmTile<R, 1>(ab, a_rs, a_cs, bpan + jt, ldb, obase + jt, n,
                      mbase != nullptr ? mbase + jt : nullptr,
                      bias != nullptr ? bias + jt : nullptr, relu, pk,
                      tailLanes(jn - jt));
}

using ZmmRowsFn = decltype(&zmmRows<1>);

/** zmmRows<1> .. zmmRows<kZmmRows - 1>, indexed by rows - 1. */
template <std::size_t... R>
constexpr std::array<ZmmRowsFn, sizeof...(R)>
zmmRowTails(std::index_sequence<R...>)
{
    return {&zmmRows<R + 1>...};
}

constexpr auto kZmmRowTails =
    zmmRowTails(std::make_index_sequence<kZmmRows - 1>());

/**
 * AVX-512F GEMM block: kZmmRows x 32 zmm register tiles (24
 * accumulators, two b loads shared across the 12 rows per k step) over
 * the same cache block as gemmBlockScalar, with compile-time row tails
 * and masked column tails. Same arguments and the same per-element
 * contract as gemmBlockScalar and gemmBlockAvx2, so the three are
 * bitwise interchangeable.
 */
__attribute__((target("avx512f"))) void
gemmBlockAvx512(const float* RECSIM_RESTRICT apan, std::size_t a_rs,
                std::size_t a_cs, const float* RECSIM_RESTRICT bpan,
                std::size_t ldb, float* RECSIM_RESTRICT od, std::size_t n,
                std::size_t i0, std::size_t i1, std::size_t jj,
                std::size_t jn, std::size_t pk, bool last,
                const float* RECSIM_RESTRICT bias, bool relu,
                const float* RECSIM_RESTRICT mask)
{
    const float* ebias = bias != nullptr && last ? bias + jj : nullptr;
    const bool masked = mask != nullptr && last;
    for (std::size_t i = i0; i < i1; i += kZmmRows) {
        const ZmmRowsFn rows = i + kZmmRows <= i1
            ? &zmmRows<kZmmRows> : kZmmRowTails[i1 - i - 1];
        rows(apan + (i - i0) * a_rs, a_rs, a_cs, bpan, ldb,
             od + i * n + jj, n, masked ? mask + i * n + jj : nullptr,
             ebias, relu, jn, pk);
    }
}

#endif // RECSIM_SIMD_X86

#if defined(RECSIM_SIMD_X86)

/**
 * Column-tiled row reduction: 32-column register tiles accumulated
 * across all rows before one store, instead of a read-modify-write of
 * od per (row, column). Each column still adds its rows in increasing
 * i with plain float adds — the exact per-element ops of the scalar
 * loop — so the paths are bitwise interchangeable. Shared by sumRows
 * (full matrix, column-parallel) and the fused bias-grad reduction in
 * gemmBlocked (one k-panel at a time, rows still increasing overall).
 */
__attribute__((target("avx2"))) void
sumRowsAvx2(const float* RECSIM_RESTRICT xd, float* RECSIM_RESTRICT od,
            std::size_t rows, std::size_t cols, std::size_t j0,
            std::size_t j1)
{
    std::size_t j = j0;
    for (; j + 32 <= j1; j += 32) {
        __m256 acc0 = _mm256_loadu_ps(od + j);
        __m256 acc1 = _mm256_loadu_ps(od + j + 8);
        __m256 acc2 = _mm256_loadu_ps(od + j + 16);
        __m256 acc3 = _mm256_loadu_ps(od + j + 24);
        for (std::size_t i = 0; i < rows; ++i) {
            const float* RECSIM_RESTRICT row = xd + i * cols + j;
            acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(row));
            acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(row + 8));
            acc2 = _mm256_add_ps(acc2, _mm256_loadu_ps(row + 16));
            acc3 = _mm256_add_ps(acc3, _mm256_loadu_ps(row + 24));
        }
        _mm256_storeu_ps(od + j, acc0);
        _mm256_storeu_ps(od + j + 8, acc1);
        _mm256_storeu_ps(od + j + 16, acc2);
        _mm256_storeu_ps(od + j + 24, acc3);
    }
    for (; j + 8 <= j1; j += 8) {
        __m256 acc = _mm256_loadu_ps(od + j);
        for (std::size_t i = 0; i < rows; ++i)
            acc = _mm256_add_ps(acc,
                                _mm256_loadu_ps(xd + i * cols + j));
        _mm256_storeu_ps(od + j, acc);
    }
    for (; j < j1; ++j) {
        float acc = od[j];
        for (std::size_t i = 0; i < rows; ++i)
            acc += xd[i * cols + j];
        od[j] = acc;
    }
}

#endif // RECSIM_SIMD_X86

/**
 * Scalar twin of sumRowsAvx2: od[j] += sum over rows of xd[i, j],
 * rows added in increasing i per column.
 */
void
sumRowsScalar(const float* RECSIM_RESTRICT xd,
              float* RECSIM_RESTRICT od, std::size_t rows,
              std::size_t cols, std::size_t j0, std::size_t j1)
{
    for (std::size_t i = 0; i < rows; ++i) {
        const float* RECSIM_RESTRICT row = xd + i * cols;
        for (std::size_t j = j0; j < j1; ++j)
            od[j] += row[j];
    }
}

/** Dispatching panel column-sum: od[j0..j1) += column sums of xd. */
void
colSumPanel(const float* RECSIM_RESTRICT xd, float* RECSIM_RESTRICT od,
            std::size_t rows, std::size_t cols, std::size_t j0,
            std::size_t j1)
{
#if defined(RECSIM_SIMD_X86)
    if (simd::activeTier() != simd::Tier::Scalar) {
        sumRowsAvx2(xd, od, rows, cols, j0, j1);
        return;
    }
#endif
    sumRowsScalar(xd, od, rows, cols, j0, j1);
}

/**
 * The output tiling of one GEMM: tiles of rows x cols (the last row
 * block and the last column block may be smaller), numbered
 * row-block-major. Tiles are the parallelFor chunks, so a tile's
 * geometry depends only on (m, k, n).
 */
struct TileGrid
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t col_tiles = 0;
    std::size_t count = 0;
};

/**
 * Tiles of at most kTileRows x kTileCols, rounded to whole register
 * tiles. A GEMM with enough work for kMinTiles tiles of
 * kMinWorkPerChunk FLOPs gets at least kMinTiles (more row blocks when
 * the output has few column blocks) and no tile smaller than that; a
 * smaller one is a single tile, which parallelFor runs inline.
 */
TileGrid
tileGrid(std::size_t m, std::size_t k, std::size_t n)
{
    const std::size_t max_tiles = 2 * m * k * n / kMinWorkPerChunk;
    if (max_tiles < kMinTiles)
        return {m, n, 1, 1};
    const std::size_t col_tiles =
        std::min(ceilDiv(n, kTileCols), max_tiles);
    const std::size_t row_tiles = std::min(
        {std::max(ceilDiv(m, kTileRows), ceilDiv(kMinTiles, col_tiles)),
         ceilDiv(m, kMr), max_tiles / col_tiles});
    TileGrid grid;
    grid.rows = std::min(m, kMr * ceilDiv(ceilDiv(m, row_tiles), kMr));
    grid.cols = std::min(n, kNr * ceilDiv(ceilDiv(n, col_tiles), kNr));
    grid.col_tiles = ceilDiv(n, grid.cols);
    grid.count = ceilDiv(m, grid.rows) * grid.col_tiles;
    return grid;
}

/** Floats per 64-byte cache line. */
constexpr std::size_t kLineFloats = 64 / sizeof(float);

/**
 * Row stride, in floats, of a tile's scratch copy of a block @p width
 * floats wide: an odd number of whole cache lines, so consecutive rows
 * of the copy land in different L1 sets. (A power-of-two stride such
 * as 128 floats puts the 128 rows a register tile walks down into 8
 * sets, more lines than they hold.)
 */
std::size_t
scratchStride(std::size_t width)
{
    return kLineFloats * (ceilDiv(width, kLineFloats) | 1);
}

/**
 * The calling thread's scratch buffer @p slot (one per operand),
 * grown to at least @p size floats. Thread-local, so concurrent GEMMs
 * never share it; a tile fills and consumes it before the thread runs
 * another tile.
 */
float*
tileScratch(std::size_t slot, std::size_t size)
{
    thread_local std::vector<float> scratch[2];
    if (scratch[slot].size() < size)
        scratch[slot].resize(size);
    return scratch[slot].data();
}

/**
 * Copy the block A(i0 + i, pp + p), i < rows, p < pk, of a transposed
 * left operand (ad holds A^T as [k, m] row-major, A(i, p) =
 * ad[p * m + i]) into scratch as pk contiguous runs of rows floats,
 * @p lda apart. Reading A^T in place would walk the register tile's
 * k terms m floats apart, a stride the hardware prefetcher does not
 * follow and that aliases in L1 for the power-of-two layer widths.
 */
const float*
copyTransABlock(const float* RECSIM_RESTRICT ad, std::size_t m,
                std::size_t i0, std::size_t rows, std::size_t pp,
                std::size_t pk, std::size_t lda)
{
    float* RECSIM_RESTRICT dst = tileScratch(0, pk * lda);
    for (std::size_t p = 0; p < pk; ++p)
        std::copy_n(ad + (pp + p) * m + i0, rows, dst + p * lda);
    return dst;
}

/**
 * Copy the block B(pp + p, jj + j), p < pk, j < jn, of a transposed
 * right operand (bd holds B^T as [n, k] row-major, B(p, j) =
 * bd[j * k + p]) into scratch as the row-major [pk, jn] panel the
 * block kernels read, rows @p ldb apart. (The dot-product form of
 * A (*) B^T keeps a serial chain per element that cannot vectorize
 * without reassociation; the transposed copy feeds the same core and
 * adds the k terms in the same increasing p.) Every source run is a
 * contiguous piece of one row of bd, and the copy holds one tile's
 * k-panel, not the whole operand.
 */
const float*
transposeBBlock(const float* RECSIM_RESTRICT bd, std::size_t k,
                std::size_t jj, std::size_t jn, std::size_t pp,
                std::size_t pk, std::size_t ldb)
{
    float* RECSIM_RESTRICT dst = tileScratch(1, pk * ldb);
    // Eight source rows at a time: each p step stores 32 contiguous
    // bytes of a destination row instead of 4.
    std::size_t j = 0;
    for (; j + 8 <= jn; j += 8) {
        const float* RECSIM_RESTRICT src = bd + (jj + j) * k + pp;
        for (std::size_t p = 0; p < pk; ++p)
            for (std::size_t u = 0; u < 8; ++u)
                dst[p * ldb + j + u] = src[u * k + p];
    }
    for (; j < jn; ++j) {
        const float* RECSIM_RESTRICT src = bd + (jj + j) * k + pp;
        for (std::size_t p = 0; p < pk; ++p)
            dst[p * ldb + j] = src[p];
    }
    return dst;
}

/**
 * The operands of one GEMM: out[m, n] (+)= A[m, k] * B[k, n]. A is @p a
 * as a row-major [m, k] matrix or, with @p a_trans, @p a holds A^T as
 * [k, m]; likewise B is @p b as [k, n] or, with @p b_trans, B^T as
 * [n, k]. @p out is row-major [m, n] and must be zeroed (or hold the
 * value being accumulated into). When @p bias is non-null the
 * bias(+relu) epilogue runs inside the final k-panel store; when
 * @p mask is non-null the dReLU mask is applied there too. When
 * @p col_sum is non-null (B not transposed) it receives, on top of its
 * current value, the column sums of b (the fused bias gradient: b is
 * dy in the grad GEMM).
 */
struct GemmArgs
{
    const float* a = nullptr;
    bool a_trans = false;
    const float* b = nullptr;
    bool b_trans = false;
    float* out = nullptr;
    std::size_t m = 0;
    std::size_t k = 0;
    std::size_t n = 0;
    const float* bias = nullptr;
    bool relu = false;
    const float* mask = nullptr;
    float* col_sum = nullptr;
};

/** A GEMM block kernel: gemmBlockScalar, gemmBlockAvx2 or ...Avx512. */
using GemmBlockFn = decltype(&gemmBlockScalar);

/** The GEMM block kernel of the active SIMD tier. */
GemmBlockFn
gemmBlockKernel()
{
    switch (simd::activeTier()) {
#if defined(RECSIM_SIMD_X86)
    case simd::Tier::Avx512:
        return gemmBlockAvx512;
    case simd::Tier::Avx2:
        return gemmBlockAvx2;
#endif
    default:
        return gemmBlockScalar;
    }
}

/**
 * Compute the output tile rows [i0, i1) x columns [jj, jj + jn) of
 * @p g, one kKc-deep k-panel at a time. The tile copies the blocks of a
 * transposed operand it needs, per k-panel (copyTransABlock,
 * transposeBBlock), and reads the others in place. Per output element
 * the k terms are added in increasing p, one fma each (see ops.h
 * contract), so tiling, copies, register blocking, vector width and
 * threading change nothing bitwise.
 *
 * The tiles that own row 0 add the column sums of b for their columns
 * while their k-panels stream through it anyway: panels arrive in
 * increasing pp, and within a panel rows are added in increasing order
 * — per column exactly sumRows' serial add sequence, hence bitwise
 * identical to a separate sumRows(dy, db), at any thread count.
 */
void
gemmTile(const GemmArgs& g, std::size_t i0, std::size_t i1,
         std::size_t jj, std::size_t jn)
{
    const GemmBlockFn block = gemmBlockKernel();
    const std::size_t a_rs = g.a_trans ? 1 : g.k;
    const std::size_t a_cs = g.a_trans ? scratchStride(i1 - i0) : 1;
    const std::size_t ldb = g.b_trans ? scratchStride(jn) : g.n;
    for (std::size_t pp = 0; pp < g.k; pp += kKc) {
        const std::size_t pk = std::min(kKc, g.k - pp);
        const bool last = pp + pk == g.k;
        if (g.col_sum != nullptr && i0 == 0)
            colSumPanel(g.b + pp * g.n, g.col_sum, pk, g.n, jj, jj + jn);
        const float* apan = g.a_trans
            ? copyTransABlock(g.a, g.m, i0, i1 - i0, pp, pk, a_cs)
            : g.a + i0 * g.k + pp;
        const float* bpan = g.b_trans
            ? transposeBBlock(g.b, g.k, jj, jn, pp, pk, ldb)
            : g.b + pp * g.n + jj;
        block(apan, a_rs, a_cs, bpan, ldb, g.out, g.n, i0, i1, jj, jn, pk,
              last, g.bias, g.relu, g.mask);
    }
}

/** The shared GEMM core: @p g cut into tileGrid()'s tiles. */
void
gemmBlocked(const GemmArgs& g)
{
    const TileGrid grid = tileGrid(g.m, g.k, g.n);
    util::globalThreadPool().parallelFor(
        0, grid.count, 1, [&](std::size_t t0, std::size_t t1) {
            for (std::size_t t = t0; t < t1; ++t) {
                const std::size_t i0 = t / grid.col_tiles * grid.rows;
                const std::size_t jj = t % grid.col_tiles * grid.cols;
                gemmTile(g, i0, std::min(i0 + grid.rows, g.m), jj,
                         std::min(grid.cols, g.n - jj));
            }
        });
}

} // namespace

void
matmul(const Tensor& a, const Tensor& b, Tensor& out)
{
    requireRank2(a, "matmul");
    requireRank2(b, "matmul");
    RECSIM_ASSERT(a.cols() == b.rows(), "matmul {} x {}",
                  a.shapeString(), b.shapeString());
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    out.resize(m, n);
    gemmBlocked({.a = a.data(), .b = b.data(), .out = out.data(), .m = m,
                 .k = k, .n = n});
}

void
matmulBiasAct(const Tensor& a, const Tensor& b, const Tensor& bias,
              bool relu, Tensor& out)
{
    requireRank2(a, "matmulBiasAct");
    requireRank2(b, "matmulBiasAct");
    RECSIM_ASSERT(a.cols() == b.rows(), "matmulBiasAct {} x {}",
                  a.shapeString(), b.shapeString());
    RECSIM_ASSERT(bias.size() == b.cols(), "bias {} for {}",
                  bias.shapeString(), b.shapeString());
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    out.resize(m, n);
    gemmBlocked({.a = a.data(), .b = b.data(), .out = out.data(), .m = m,
                 .k = k, .n = n, .bias = bias.data(), .relu = relu});
}

void
matmulTransA(const Tensor& a, const Tensor& b, Tensor& out)
{
    requireRank2(a, "matmulTransA");
    requireRank2(b, "matmulTransA");
    RECSIM_ASSERT(a.rows() == b.rows(), "matmulTransA {} x {}",
                  a.shapeString(), b.shapeString());
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    out.resize(m, n);
    gemmBlocked({.a = a.data(), .a_trans = true, .b = b.data(),
                 .out = out.data(), .m = m, .k = k, .n = n});
}

void
matmulTransB(const Tensor& a, const Tensor& b, Tensor& out)
{
    matmulTransBMask(a, b, nullptr, out);
}

void
matmulTransBMask(const Tensor& a, const Tensor& b, const Tensor* mask,
                 Tensor& out)
{
    requireRank2(a, "matmulTransBMask");
    requireRank2(b, "matmulTransBMask");
    RECSIM_ASSERT(a.cols() == b.cols(), "matmulTransBMask {} x {}",
                  a.shapeString(), b.shapeString());
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    if (mask != nullptr)
        RECSIM_ASSERT(mask->rows() == m && mask->cols() == n,
                      "matmulTransBMask mask {} for [{} x {}] output",
                      mask->shapeString(), m, n);
    out.resize(m, n);
    gemmBlocked({.a = a.data(), .b = b.data(), .b_trans = true,
                 .out = out.data(), .m = m, .k = k, .n = n,
                 .mask = mask != nullptr ? mask->data() : nullptr});
}

void
matmulTransABiasGrad(const Tensor& x, const Tensor& dy, Tensor& dw,
                     Tensor& db)
{
    requireRank2(x, "matmulTransABiasGrad");
    requireRank2(dy, "matmulTransABiasGrad");
    RECSIM_ASSERT(x.rows() == dy.rows(), "matmulTransABiasGrad {} x {}",
                  x.shapeString(), dy.shapeString());
    const std::size_t k = x.rows(), m = x.cols(), n = dy.cols();
    dw.resize(m, n);
    if (db.size() != n || db.rank() != 1)
        db.resize(n);
    else
        db.zero();
    gemmBlocked({.a = x.data(), .a_trans = true, .b = dy.data(),
                 .out = dw.data(), .m = m, .k = k, .n = n,
                 .col_sum = db.data()});
}

void
matmulTransBSegmented(const Tensor& a, const Tensor& b,
                      std::vector<GemmOutSegment>& segments)
{
    requireRank2(a, "matmulTransBSegmented");
    requireRank2(b, "matmulTransBSegmented");
    RECSIM_ASSERT(a.cols() == b.cols(), "matmulTransBSegmented {} x {}",
                  a.shapeString(), b.shapeString());
    const std::size_t m = a.rows(), k = a.cols();
    std::size_t total = 0;
    for (const GemmOutSegment& seg : segments)
        total += seg.width;
    RECSIM_ASSERT(total == b.rows(),
                  "matmulTransBSegmented widths sum to {}, b has {} "
                  "rows", total, b.rows());
    // The zero bias reproduces a consumer that zero-initializes its
    // buffer and then += the GEMM result: acc + 0.0f == 0.0f + acc
    // bitwise (both give +0.0f when acc is -0.0f).
    thread_local Tensor tl_zero_bias;
    std::size_t zero_width = 0;
    for (GemmOutSegment& seg : segments) {
        seg.out->resize(m, seg.width);
        if (seg.zero_bias)
            zero_width = std::max(zero_width, seg.width);
    }
    if (m == 0 || total == 0)
        return;
    if (tl_zero_bias.size() < zero_width)
        tl_zero_bias.resize(zero_width);
    const float* zero_bias = tl_zero_bias.data();

    // One tiled GEMM over the whole product: the row blocks of its
    // tileGrid(), and column tiles of its width cut at segment edges.
    // A narrow segment so stays one column tile per row block, and
    // each tile transposes only its own block of b, once.
    const TileGrid grid = tileGrid(m, k, total);
    std::size_t col_tiles = 0;
    for (const GemmOutSegment& seg : segments)
        col_tiles += ceilDiv(seg.width, grid.cols);
    util::globalThreadPool().parallelFor(
        0, ceilDiv(m, grid.rows) * col_tiles, 1,
        [&](std::size_t t0, std::size_t t1) {
            for (std::size_t t = t0; t < t1; ++t) {
                const std::size_t i0 = t / col_tiles * grid.rows;
                std::size_t c = t % col_tiles, c0 = 0;
                for (const GemmOutSegment& seg : segments) {
                    const std::size_t w = seg.width;
                    const std::size_t tiles = ceilDiv(w, grid.cols);
                    if (c < tiles) {
                        const std::size_t jj = c * grid.cols;
                        gemmTile({.a = a.data(), .b = b.data() + c0 * k,
                                  .b_trans = true, .out = seg.out->data(),
                                  .m = m, .k = k, .n = w,
                                  .bias = seg.zero_bias ? zero_bias
                                                        : nullptr},
                                 i0, std::min(i0 + grid.rows, m), jj,
                                 std::min(grid.cols, w - jj));
                        break;
                    }
                    c -= tiles;
                    c0 += w;
                }
            }
        });
}

void
addBiasRows(Tensor& x, const Tensor& bias)
{
    requireRank2(x, "addBiasRows");
    RECSIM_ASSERT(bias.size() == x.cols(), "bias {} for {}",
                  bias.shapeString(), x.shapeString());
    const std::size_t cols = x.cols();
    float* RECSIM_RESTRICT xd = x.data();
    const float* RECSIM_RESTRICT bd = bias.data();
    util::globalThreadPool().parallelFor(
        0, x.rows(), rowGrain(cols),
        [=](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                float* RECSIM_RESTRICT row = xd + i * cols;
                for (std::size_t j = 0; j < cols; ++j)
                    row[j] += bd[j];
            }
        });
}

void
sumRows(const Tensor& x, Tensor& out)
{
    requireRank2(x, "sumRows");
    if (out.size() != x.cols() || out.rank() != 1)
        out.resize(x.cols());
    else
        out.zero();
    const std::size_t rows = x.rows(), cols = x.cols();
    const float* RECSIM_RESTRICT xd = x.data();
    float* RECSIM_RESTRICT od = out.data();
    // Parallel over *columns*: each output element is owned by one
    // chunk and accumulates in row order, identical to the serial loop.
    util::globalThreadPool().parallelFor(
        0, cols, rowGrain(rows),
        [=](std::size_t j0, std::size_t j1) {
            colSumPanel(xd, od, rows, cols, j0, j1);
        });
}

void
axpy(float alpha, const Tensor& x, Tensor& y)
{
    RECSIM_ASSERT(x.size() == y.size(), "axpy {} into {}",
                  x.shapeString(), y.shapeString());
    const float* RECSIM_RESTRICT xd = x.data();
    float* RECSIM_RESTRICT yd = y.data();
    util::globalThreadPool().parallelFor(
        0, x.size(), kElemGrain,
        [=](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i)
                yd[i] += alpha * xd[i];
        });
}

void
scale(Tensor& x, float alpha)
{
    float* RECSIM_RESTRICT xd = x.data();
    util::globalThreadPool().parallelFor(
        0, x.size(), kElemGrain,
        [=](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i)
                xd[i] *= alpha;
        });
}

void
reluInPlace(Tensor& x)
{
    float* RECSIM_RESTRICT xd = x.data();
    util::globalThreadPool().parallelFor(
        0, x.size(), kElemGrain,
        [=](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i)
                xd[i] = std::max(xd[i], 0.0f);
        });
}

void
reluBackward(const Tensor& y, const Tensor& dy, Tensor& dx)
{
    RECSIM_ASSERT(y.size() == dy.size(), "reluBackward shape mismatch");
    if (!dx.sameShape(dy)) {
        if (dy.rank() == 2)
            dx.resize(dy.rows(), dy.cols());
        else
            dx.resize(dy.size());
    }
    const float* RECSIM_RESTRICT yd = y.data();
    const float* RECSIM_RESTRICT dyd = dy.data();
    float* RECSIM_RESTRICT dxd = dx.data();
    util::globalThreadPool().parallelFor(
        0, y.size(), kElemGrain,
        [=](std::size_t i0, std::size_t i1) {
            simd::reluMaskSpan(yd + i0, dyd + i0, dxd + i0, i1 - i0);
        });
}

void
sigmoidInPlace(Tensor& x)
{
    float* RECSIM_RESTRICT xd = x.data();
    // Full elementwise grain (the libm-exp version used a quarter of
    // it because each element cost a libm call; the fast exp is ~20x
    // cheaper). Grain only changes chunk boundaries, and the kernel is
    // elementwise, so results are unchanged by the grain choice.
    util::globalThreadPool().parallelFor(
        0, x.size(), kElemGrain,
        [=](std::size_t i0, std::size_t i1) {
            simd::sigmoidSpan(xd + i0, i1 - i0);
        });
}

double
sumAll(const Tensor& x)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        acc += x.data()[i];
    return acc;
}

double
dot(const Tensor& a, const Tensor& b)
{
    RECSIM_ASSERT(a.size() == b.size(), "dot {} . {}", a.shapeString(),
                  b.shapeString());
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += static_cast<double>(a.data()[i]) * b.data()[i];
    return acc;
}

double
l2Norm(const Tensor& x)
{
    return std::sqrt(dot(x, x));
}

double
maxAbsDiff(const Tensor& a, const Tensor& b)
{
    RECSIM_ASSERT(a.size() == b.size(), "maxAbsDiff {} vs {}",
                  a.shapeString(), b.shapeString());
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(
            static_cast<double>(a.data()[i]) - b.data()[i]));
    return worst;
}

void
clipL2Norm(Tensor& x, double max_norm)
{
    RECSIM_ASSERT(max_norm > 0.0, "clip norm must be positive");
    const double norm = l2Norm(x);
    if (norm > max_norm)
        scale(x, static_cast<float>(max_norm / norm));
}

} // namespace tensor
} // namespace recsim
