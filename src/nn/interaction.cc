#include "nn/interaction.h"

#include <algorithm>
#include <cstring>

#include "obs/trace.h"
#include "tensor/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace recsim {
namespace nn {

std::size_t
CatInteraction::outWidth(std::size_t dense_width, std::size_t num_sparse,
                         std::size_t emb_dim)
{
    return dense_width + num_sparse * emb_dim;
}

void
CatInteraction::forward(const tensor::Tensor& dense,
                        const std::vector<tensor::Tensor>& embs,
                        tensor::Tensor& out) const
{
    RECSIM_TRACE_SPAN("nn.cat.fwd");
    const std::size_t b = dense.rows();
    std::size_t width = dense.cols();
    for (const auto& e : embs) {
        RECSIM_ASSERT(e.rows() == b, "cat interaction batch mismatch");
        width += e.cols();
    }
    if (out.rank() != 2 || out.rows() != b || out.cols() != width)
        out = tensor::Tensor(b, width);
    for (std::size_t ex = 0; ex < b; ++ex) {
        float* orow = out.row(ex);
        std::memcpy(orow, dense.row(ex), dense.cols() * sizeof(float));
        std::size_t off = dense.cols();
        for (const auto& e : embs) {
            std::memcpy(orow + off, e.row(ex), e.cols() * sizeof(float));
            off += e.cols();
        }
    }
}

void
CatInteraction::backward(const tensor::Tensor& dense,
                         const std::vector<tensor::Tensor>& embs,
                         const tensor::Tensor& dy, tensor::Tensor& d_dense,
                         std::vector<tensor::Tensor>& d_embs) const
{
    RECSIM_TRACE_SPAN("nn.cat.bwd");
    const std::size_t b = dense.rows();
    RECSIM_ASSERT(dy.rows() == b, "cat backward batch mismatch");
    if (!d_dense.sameShape(dense))
        d_dense = tensor::Tensor(b, dense.cols());
    d_embs.resize(embs.size());
    for (std::size_t s = 0; s < embs.size(); ++s) {
        if (!d_embs[s].sameShape(embs[s]))
            d_embs[s] = tensor::Tensor(b, embs[s].cols());
    }
    for (std::size_t ex = 0; ex < b; ++ex) {
        const float* dyrow = dy.row(ex);
        std::memcpy(d_dense.row(ex), dyrow,
                    dense.cols() * sizeof(float));
        std::size_t off = dense.cols();
        for (std::size_t s = 0; s < embs.size(); ++s) {
            std::memcpy(d_embs[s].row(ex), dyrow + off,
                        embs[s].cols() * sizeof(float));
            off += embs[s].cols();
        }
    }
}

std::size_t
DotInteraction::outWidth(std::size_t num_sparse, std::size_t emb_dim)
{
    const std::size_t f = num_sparse + 1;
    return emb_dim + f * (f - 1) / 2;
}

namespace {

/**
 * Examples per pool chunk of DotInteraction::forward: at least
 * kDotChunkWork pairwise multiply-adds, so dispatch stays a small share
 * of a chunk, and at most kDotMaxChunks chunks per batch, so a large
 * batch does not flood the pool's queue. Depends only on (B, F, d).
 */
constexpr std::size_t kDotChunkWork = std::size_t(1) << 17;
constexpr std::size_t kDotMaxChunks = 32;

std::size_t
dotGrain(std::size_t b, std::size_t f, std::size_t d)
{
    const std::size_t work = std::max<std::size_t>(f * (f - 1) / 2 * d, 1);
    return std::max({kDotChunkWork / work,
                     (b + kDotMaxChunks - 1) / kDotMaxChunks,
                     std::size_t(1)});
}

/**
 * The pairwise half of the dot interaction's backward: for each
 * example and each pair i < j (i-major), g = g_rows.row(ex)[col0 +
 * pair]; a zero g is skipped, otherwise dvec[i] += g * vec[j] and
 * dvec[j] += g * vec[i], element by element in increasing k.
 */
void
scatterPairGrads(const tensor::Tensor& dense,
                 const std::vector<tensor::Tensor>& embs,
                 const tensor::Tensor& g_rows, std::size_t col0,
                 tensor::Tensor& d_dense,
                 std::vector<tensor::Tensor>& d_embs)
{
    const std::size_t d = dense.cols();
    const std::size_t f = embs.size() + 1;
    std::vector<const float*> vec(f);
    std::vector<float*> dvec(f);
    for (std::size_t ex = 0; ex < dense.rows(); ++ex) {
        vec[0] = dense.row(ex);
        dvec[0] = d_dense.row(ex);
        for (std::size_t s = 0; s < embs.size(); ++s) {
            vec[s + 1] = embs[s].row(ex);
            dvec[s + 1] = d_embs[s].row(ex);
        }
        const float* grow = g_rows.row(ex) + col0;
        std::size_t off = 0;
        for (std::size_t i = 0; i < f; ++i) {
            for (std::size_t j = i + 1; j < f; ++j) {
                const float g = grow[off++];
                if (g == 0.0f)
                    continue;
                for (std::size_t k = 0; k < d; ++k) {
                    dvec[i][k] += g * vec[j][k];
                    dvec[j][k] += g * vec[i][k];
                }
            }
        }
    }
}

/** Shapes every d_embs[s] like embs[s] and zeroes it. */
void
zeroEmbeddingGrads(const std::vector<tensor::Tensor>& embs,
                   std::vector<tensor::Tensor>& d_embs)
{
    d_embs.resize(embs.size());
    for (std::size_t s = 0; s < embs.size(); ++s) {
        if (!d_embs[s].sameShape(embs[s]))
            d_embs[s] = tensor::Tensor(embs[s].rows(), embs[s].cols());
        d_embs[s].zero();
    }
}

} // namespace

void
DotInteraction::forward(const tensor::Tensor& dense,
                        const std::vector<tensor::Tensor>& embs,
                        tensor::Tensor& out) const
{
    RECSIM_TRACE_SPAN("nn.dot.fwd");
    const std::size_t b = dense.rows();
    const std::size_t d = dense.cols();
    const std::size_t f = embs.size() + 1;
    for (const auto& e : embs)
        RECSIM_ASSERT(e.rows() == b && e.cols() == d,
                      "dot interaction needs [B, d] embeddings");
    const std::size_t width = outWidth(embs.size(), d);
    if (out.rank() != 2 || out.rows() != b || out.cols() != width)
        out.resize(b, width);

    // Each example's output row is owned by one chunk and its dots do
    // not depend on the chunking, so the result is bit-identical at any
    // pool size.
    util::globalThreadPool().parallelFor(
        0, b, dotGrain(b, f, d),
        [&](std::size_t e0, std::size_t e1) {
            // Per-example view of the F vectors; slot 0 is the dense
            // projection.
            thread_local std::vector<const float*> vec;
            vec.resize(f);
            for (std::size_t ex = e0; ex < e1; ++ex) {
                vec[0] = dense.row(ex);
                for (std::size_t s = 0; s < embs.size(); ++s)
                    vec[s + 1] = embs[s].row(ex);
                float* orow = out.row(ex);
                std::memcpy(orow, vec[0], d * sizeof(float));
                tensor::simd::pairwiseDotsSpan(vec.data(), f, d,
                                               orow + d);
            }
        });
}

void
DotInteraction::backward(const tensor::Tensor& dense,
                         const std::vector<tensor::Tensor>& embs,
                         const tensor::Tensor& dy, tensor::Tensor& d_dense,
                         std::vector<tensor::Tensor>& d_embs) const
{
    RECSIM_TRACE_SPAN("nn.dot.bwd");
    const std::size_t b = dense.rows();
    const std::size_t d = dense.cols();
    RECSIM_ASSERT(dy.rows() == b &&
                  dy.cols() == outWidth(embs.size(), d),
                  "dot backward dy {}", dy.shapeString());
    if (!d_dense.sameShape(dense))
        d_dense = tensor::Tensor(b, d);
    d_dense.zero();
    zeroEmbeddingGrads(embs, d_embs);
    // Pass-through part: the dense copy occupies the first d slots. It
    // lands in every d_dense element before that element's pairwise
    // terms, as in a per-example walk.
    for (std::size_t ex = 0; ex < b; ++ex) {
        float* drow = d_dense.row(ex);
        const float* dyrow = dy.row(ex);
        for (std::size_t k = 0; k < d; ++k)
            drow[k] += dyrow[k];
    }
    scatterPairGrads(dense, embs, dy, d, d_dense, d_embs);
}

void
DotInteraction::backwardFused(const tensor::Tensor& dense,
                              const std::vector<tensor::Tensor>& embs,
                              const tensor::Tensor& d_pairs,
                              tensor::Tensor& d_dense,
                              std::vector<tensor::Tensor>& d_embs) const
{
    RECSIM_TRACE_SPAN("nn.dot.bwd");
    const std::size_t b = dense.rows();
    const std::size_t f = embs.size() + 1;
    RECSIM_ASSERT(d_pairs.rows() == b &&
                  d_pairs.cols() == f * (f - 1) / 2,
                  "dot fused backward d_pairs {}", d_pairs.shapeString());
    // d_dense was written by the GEMM's zero-bias segment and is only
    // accumulated into here; the pairwise g values arrive compacted in
    // d_pairs with the same bits the flatten buffer's tail columns
    // would carry, so the g == 0 skip and every += match backward().
    RECSIM_ASSERT(d_dense.sameShape(dense),
                  "dot fused backward d_dense {}", d_dense.shapeString());
    zeroEmbeddingGrads(embs, d_embs);
    scatterPairGrads(dense, embs, d_pairs, 0, d_dense, d_embs);
}

} // namespace nn
} // namespace recsim
