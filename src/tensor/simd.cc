#include "tensor/simd.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "util/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#  define RECSIM_SIMD_X86 1
#  include <immintrin.h>
#endif

namespace recsim {
namespace tensor {
namespace simd {

namespace {

/**
 * Cephes-style expf constants. The input is clamped to
 * [kExpLo, kExpHi]: below kExpLo = ln(2^-126) the true result is
 * denormal (we saturate at ~1.18e-38), above kExpHi the 2^n scale
 * would overflow the exponent field (we saturate at exp(kExpHi)
 * ~ 2.1e38, still finite). The reduction n = rint(x * log2(e)) then
 * stays within [-126, 127], so the bit-shifted scale is always a
 * normal float.
 */
constexpr float kExpHi = 88.3762626647949f;
constexpr float kExpLo = -87.3365447504531f;
constexpr float kLog2e = 1.44269504088896341f;
/** ln(2) split high/low so r = x - n*ln2 stays exact to float. */
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
/** 1.5 * 2^23: adding then subtracting rounds to the nearest integer. */
constexpr float kRoundMagic = 12582912.0f;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

/**
 * The shared lane arithmetic, written with std::fma so the scalar path
 * performs exactly the operations the AVX2 path performs per lane
 * (vfmadd / vaddps / vmulps / vdivps are all correctly rounded, so op
 * sequence equality implies bit equality for non-NaN inputs).
 */
inline float
fastExpLane(float x)
{
    x = std::min(std::max(x, kExpLo), kExpHi);
    const float t = std::fma(x, kLog2e, kRoundMagic);
    const float fx = t - kRoundMagic; // rint(x * log2e), exact integer
    float r = std::fma(fx, -kLn2Hi, x);
    r = std::fma(fx, -kLn2Lo, r);
    const float r2 = r * r;
    float p = kExpP0;
    p = std::fma(p, r, kExpP1);
    p = std::fma(p, r, kExpP2);
    p = std::fma(p, r, kExpP3);
    p = std::fma(p, r, kExpP4);
    p = std::fma(p, r, kExpP5);
    const float y = std::fma(p, r2, r) + 1.0f;
    const auto n = static_cast<int32_t>(fx); // integral, exact
    const uint32_t scale_bits = static_cast<uint32_t>(n + 127) << 23;
    float scale;
    std::memcpy(&scale, &scale_bits, sizeof scale);
    return y * scale;
}

#if defined(RECSIM_SIMD_X86)

/** 8-lane fastExpLane; op-for-op identical to the scalar version. */
__attribute__((target("avx2,fma"))) inline __m256
fastExpAvx2(__m256 x)
{
    x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(kExpLo)),
                      _mm256_set1_ps(kExpHi));
    const __m256 magic = _mm256_set1_ps(kRoundMagic);
    const __m256 t =
        _mm256_fmadd_ps(x, _mm256_set1_ps(kLog2e), magic);
    const __m256 fx = _mm256_sub_ps(t, magic);
    __m256 r = _mm256_fmadd_ps(fx, _mm256_set1_ps(-kLn2Hi), x);
    r = _mm256_fmadd_ps(fx, _mm256_set1_ps(-kLn2Lo), r);
    const __m256 r2 = _mm256_mul_ps(r, r);
    __m256 p = _mm256_set1_ps(kExpP0);
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP1));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP2));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP3));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP4));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP5));
    const __m256 y = _mm256_add_ps(_mm256_fmadd_ps(p, r2, r),
                                   _mm256_set1_ps(1.0f));
    __m256i n = _mm256_cvtps_epi32(fx);
    n = _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)),
                          23);
    return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

__attribute__((target("avx2,fma"))) void
sigmoidSpanAvx2(float* x, std::size_t n)
{
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 zero = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(x + i);
        const __m256 e = fastExpAvx2(_mm256_sub_ps(zero, v));
        _mm256_storeu_ps(x + i,
                         _mm256_div_ps(one, _mm256_add_ps(one, e)));
    }
    for (; i < n; ++i)
        x[i] = 1.0f / (1.0f + fastExpLane(-x[i]));
}

__attribute__((target("avx2,fma"))) void
reluMaskSpanAvx2(const float* y, const float* dy, float* dx,
                 std::size_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // (y > 0) ? all-ones : all-zeros, ANDed with dy: passes dy's
        // exact bits or +0.0f — the bits the scalar ternary stores.
        const __m256 mask =
            _mm256_cmp_ps(_mm256_loadu_ps(y + i), zero, _CMP_GT_OQ);
        _mm256_storeu_ps(
            dx + i, _mm256_and_ps(mask, _mm256_loadu_ps(dy + i)));
    }
    for (; i < n; ++i)
        dx[i] = y[i] > 0.0f ? dy[i] : 0.0f;
}

#endif // RECSIM_SIMD_X86

/**
 * The scalar loops the optimizer kernels must reproduce; also the
 * tails of the vector loops. Built without fp contraction, so the
 * multiply and the add/subtract round separately, as vmulps + vaddps
 * do.
 */
inline void
adagradScalar(float* p, float* acc, const float* g, std::size_t i,
              std::size_t n, float lr, float eps)
{
    for (; i < n; ++i) {
        acc[i] += g[i] * g[i];
        p[i] -= lr * g[i] / (std::sqrt(acc[i]) + eps);
    }
}

inline void
sgdScalar(float* p, const float* g, std::size_t i, std::size_t n,
          float lr)
{
    for (; i < n; ++i)
        p[i] -= lr * g[i];
}

#if defined(RECSIM_SIMD_X86)

__attribute__((target("avx2,fma"))) void
adagradSpanAvx2(float* p, float* acc, const float* g, std::size_t n,
                float lr, float eps)
{
    const __m256 lrv = _mm256_set1_ps(lr);
    const __m256 epsv = _mm256_set1_ps(eps);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 gv = _mm256_loadu_ps(g + i);
        const __m256 a = _mm256_add_ps(_mm256_loadu_ps(acc + i),
                                       _mm256_mul_ps(gv, gv));
        _mm256_storeu_ps(acc + i, a);
        const __m256 step =
            _mm256_div_ps(_mm256_mul_ps(lrv, gv),
                          _mm256_add_ps(_mm256_sqrt_ps(a), epsv));
        _mm256_storeu_ps(p + i,
                         _mm256_sub_ps(_mm256_loadu_ps(p + i), step));
    }
    adagradScalar(p, acc, g, i, n, lr, eps);
}

__attribute__((target("avx2,fma"))) void
sgdSpanAvx2(float* p, const float* g, std::size_t n, float lr)
{
    const __m256 lrv = _mm256_set1_ps(lr);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            p + i, _mm256_sub_ps(_mm256_loadu_ps(p + i),
                                 _mm256_mul_ps(lrv,
                                               _mm256_loadu_ps(g + i))));
    sgdScalar(p, g, i, n, lr);
}

#endif // RECSIM_SIMD_X86

/** The pairwise-dot loop the vector tiers must reproduce. */
inline void
pairwiseDotsScalar(const float* const* rows, std::size_t f,
                   std::size_t d, float* out)
{
    std::size_t off = 0;
    for (std::size_t i = 0; i < f; ++i) {
        for (std::size_t j = i + 1; j < f; ++j) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < d; ++k)
                acc += rows[i][k] * rows[j][k];
            out[off++] = acc;
        }
    }
}

#if defined(RECSIM_SIMD_X86)

/**
 * Rows in flight per k pass: R independent add chains (one per row)
 * share each chunk load, enough to hide the add latency on the vector
 * ports, and R + 2 registers fit the 16 ymm.
 */
constexpr std::size_t kDotRows = 8;

/** Index of the first dot of row @p i in an example's output. */
inline std::size_t
rowOffset(std::size_t i, std::size_t f)
{
    return i * f - i * (i + 1) / 2;
}

/**
 * Computes rows [i0, i0 + R) of the pairwise dots against one 8-lane
 * chunk of the transposed scratch @p t (t[k * ft + j] = rows[j][k]):
 * the partners j in [j0, j0 + 8). The lanes i < j < f of each row are
 * stored at the dots' places in @p out. One function per row count, so
 * the R accumulators stay in registers.
 */
template <std::size_t R>
__attribute__((target("avx2,fma"))) void
dotRowsAvx2(const float* t, std::size_t ft, std::size_t d, std::size_t f,
            std::size_t i0, std::size_t j0, float* out)
{
    __m256 acc[R];
    for (std::size_t r = 0; r < R; ++r)
        acc[r] = _mm256_setzero_ps();
    const float* tk = t;
    for (std::size_t k = 0; k < d; ++k, tk += ft) {
        const __m256 b = _mm256_loadu_ps(tk + j0);
        for (std::size_t r = 0; r < R; ++r)
            acc[r] = _mm256_add_ps(
                acc[r], _mm256_mul_ps(_mm256_broadcast_ss(tk + i0 + r), b));
    }
    const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (std::size_t r = 0; r < R; ++r) {
        // The lanes of partners i < j < f, [lo, hi) of the chunk, go to
        // out + rowOffset(i) + j - i - 1: lane lo is shifted down to
        // lane 0 for a masked store of hi - lo lanes, so no address
        // before the row's first dot is formed.
        const std::size_t i = i0 + r;
        const std::size_t lo = std::max(j0, i + 1);
        const std::size_t hi = std::min(j0 + 8, f);
        if (lo >= hi)
            continue;
        const __m256 v = _mm256_permutevar8x32_ps(
            acc[r],
            _mm256_add_epi32(iota, _mm256_set1_epi32(int(lo - j0))));
        const __m256i keep =
            _mm256_cmpgt_epi32(_mm256_set1_epi32(int(hi - lo)), iota);
        _mm256_maskstore_ps(out + rowOffset(i, f) + lo - i - 1, keep, v);
    }
}

using DotRowsFn = void (*)(const float*, std::size_t, std::size_t,
                           std::size_t, std::size_t, std::size_t, float*);

/** dotRowsAvx2<R> for R = 1 .. kDotRows, indexed by R - 1. */
template <std::size_t... R>
constexpr std::array<DotRowsFn, kDotRows>
dotRowsTable(std::index_sequence<R...>)
{
    return {{&dotRowsAvx2<R + 1>...}};
}

constexpr auto kDotRowsAvx2 =
    dotRowsTable(std::make_index_sequence<kDotRows>());

/**
 * The calling thread's transposed scratch, at least @p n floats. It
 * only grows, so steady-state calls do not allocate.
 */
float*
dotScratch(std::size_t n)
{
    thread_local std::vector<float> scratch;
    if (scratch.size() < n)
        scratch.resize(n);
    return scratch.data();
}

/**
 * The vector tiers' pairwise dots of one example over 8-lane chunks.
 * The vectors are copied once into the scratch, transposed:
 * t[k * ft + j] = rows[j][k], a pure copy, so every bit moves
 * unchanged. The pad columns f <= j < ft keep whatever the scratch
 * held; their lanes are computed and never stored. Chunk j0 (partners
 * j in [j0, j0 + 8)) is computed for the rows that have a partner in
 * it, i < min(j0 + 8, f) - 1, in blocks of up to kDotRows rows.
 */
void
pairwiseDotsAvx2(const float* const* rows, std::size_t f, std::size_t d,
                 float* out)
{
    const std::size_t ft = (f + 7) / 8 * 8;
    float* t = dotScratch(ft * d);
    for (std::size_t k = 0; k < d; ++k)
        for (std::size_t j = 0; j < f; ++j)
            t[k * ft + j] = rows[j][k];
    for (std::size_t j0 = 0; j0 < f; j0 += 8) {
        const std::size_t r_end = std::min(j0 + 8, f) - 1;
        for (std::size_t i = 0; i < r_end; i += kDotRows)
            kDotRowsAvx2[std::min(kDotRows, r_end - i) - 1](t, ft, d, f, i,
                                                            j0, out);
    }
}

#endif // RECSIM_SIMD_X86

} // namespace

const char*
tierName(Tier tier)
{
    switch (tier) {
    case Tier::Avx512:
        return "avx512";
    case Tier::Avx2:
        return "avx2";
    case Tier::Scalar:
        break;
    }
    return "scalar";
}

Tier
supportedTier()
{
#if defined(RECSIM_SIMD_X86)
    // Also runs from a static initializer (kTierAtStartup below), where
    // GCC asks for an explicit init before the feature checks.
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma"))
        return Tier::Scalar;
    return __builtin_cpu_supports("avx512f") ? Tier::Avx512 : Tier::Avx2;
#else
    return Tier::Scalar;
#endif
}

Tier
configuredTier()
{
    const char* env = std::getenv("RECSIM_SIMD");
    if (env == nullptr || env[0] == '\0')
        return supportedTier();
    for (const Tier tier : {Tier::Scalar, Tier::Avx2, Tier::Avx512})
        if (std::strcmp(env, tierName(tier)) == 0)
            return std::min(tier, supportedTier());
    util::fatal("RECSIM_SIMD={} is not a SIMD tier; use scalar, avx2 or "
                "avx512", env);
}

Tier
activeTier()
{
    static const Tier cached = configuredTier();
    return cached;
}

namespace {

/**
 * Resolves the tier during static initialization, before main() and
 * any pool worker: a bad RECSIM_SIMD then fails at startup, not inside
 * a kernel, where exit() would wait on the workers still blocked on
 * the first activeTier() call.
 */
[[maybe_unused]] const Tier kTierAtStartup = activeTier();

} // namespace

const char*
activeKernels()
{
    return tierName(activeTier());
}

float
fastExpScalar(float x)
{
    return fastExpLane(x);
}

float
fastExp(float x)
{
    return fastExpLane(x);
}

void
sigmoidSpan(float* x, std::size_t n)
{
#if defined(RECSIM_SIMD_X86)
    if (activeTier() != Tier::Scalar) {
        sigmoidSpanAvx2(x, n);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i)
        x[i] = 1.0f / (1.0f + fastExpLane(-x[i]));
}

void
reluMaskSpan(const float* y, const float* dy, float* dx, std::size_t n)
{
#if defined(RECSIM_SIMD_X86)
    if (activeTier() != Tier::Scalar) {
        reluMaskSpanAvx2(y, dy, dx, n);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i)
        dx[i] = y[i] > 0.0f ? dy[i] : 0.0f;
}

void
adagradSpan(float* p, float* acc, const float* g, std::size_t n,
            float lr, float eps)
{
#if defined(RECSIM_SIMD_X86)
    if (activeTier() != Tier::Scalar) {
        adagradSpanAvx2(p, acc, g, n, lr, eps);
        return;
    }
#endif
    adagradScalar(p, acc, g, 0, n, lr, eps);
}

void
sgdSpan(float* p, const float* g, std::size_t n, float lr)
{
#if defined(RECSIM_SIMD_X86)
    if (activeTier() != Tier::Scalar) {
        sgdSpanAvx2(p, g, n, lr);
        return;
    }
#endif
    sgdScalar(p, g, 0, n, lr);
}

void
pairwiseDotsSpan(const float* const* rows, std::size_t f, std::size_t d,
                 float* out)
{
#if defined(RECSIM_SIMD_X86)
    if (activeTier() != Tier::Scalar && f > 1 && d > 0) {
        pairwiseDotsAvx2(rows, f, d, out);
        return;
    }
#endif
    pairwiseDotsScalar(rows, f, d, out);
}

} // namespace simd
} // namespace tensor
} // namespace recsim
