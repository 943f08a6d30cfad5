/**
 * @file
 * The *deliberately* lock-free parameter traffic shared by the
 * asynchronous trainers (Hogwild, EASGD, ShadowSync): torn reads and
 * lost updates are part of those algorithms, so these helpers are
 * excluded from ThreadSanitizer instrumentation
 * (RECSIM_NO_SANITIZE_THREAD) and use raw loops rather than
 * std::copy/memcpy, which sanitizer runtimes intercept even in
 * uninstrumented callers. Everything else in the trainers synchronizes
 * normally and stays instrumented.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "data/dataset.h"
#include "model/dlrm.h"
#include "nn/linear.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace recsim {
namespace train {
namespace racy {

/** Racy element-wise copy of one shared tensor into a replica. */
RECSIM_NO_SANITIZE_THREAD inline void
copyTensor(const tensor::Tensor& from, tensor::Tensor& to)
{
    const float* src = from.data();
    float* dst = to.data();
    const std::size_t n = from.size();
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = src[i];
}

/** Racy pull of one embedding row (shared table -> replica). */
RECSIM_NO_SANITIZE_THREAD inline void
copyRow(const float* src, float* dst, std::size_t dim)
{
    for (std::size_t j = 0; j < dim; ++j)
        dst[j] = src[j];
}

/** Racy SGD push of one sparse-gradient row into a shared table. */
RECSIM_NO_SANITIZE_THREAD inline void
pushRow(float* row, const float* grad, std::size_t dim, float lr)
{
    for (std::size_t j = 0; j < dim; ++j)
        row[j] -= lr * grad[j];
}

/**
 * Pull every embedding row @p batch touches from the tables of
 * @p shared into the same rows of @p replica. Lock-free: another
 * worker may be pushing into the same rows.
 */
inline void
pullTouchedRows(model::Dlrm& shared, model::Dlrm& replica,
                const data::MiniBatch& batch)
{
    for (std::size_t f = 0; f < batch.sparse.size(); ++f) {
        auto& st = shared.tables()[f];
        auto& rt = replica.tables()[f];
        for (uint64_t idx : batch.sparse[f].indices) {
            const auto row =
                static_cast<std::size_t>(idx % st.hashSize());
            copyRow(st.table.row(row), rt.table.row(row), st.dim());
        }
    }
}

/**
 * SGD-push every stored sparse-gradient row of @p replica into the
 * tables of @p shared, without locking.
 */
inline void
pushSparseGrads(model::Dlrm& shared, model::Dlrm& replica, float lr)
{
    for (std::size_t f = 0; f < replica.tables().size(); ++f) {
        const auto& grad = replica.sparseGrads()[f];
        auto& table = shared.tables()[f];
        for (std::size_t r = 0; r < grad.rows.size(); ++r) {
            pushRow(table.table.row(static_cast<std::size_t>(grad.rows[r])),
                    grad.values.row(r), table.dim(), lr);
        }
    }
}

/**
 * Apply the dense gradients accumulated in one layer of @p src to the
 * matching layer of @p dst without locking (the Hogwild update).
 */
RECSIM_NO_SANITIZE_THREAD inline void
applyLayerGrads(nn::Linear& dst, const nn::Linear& src, float lr)
{
    float* w = dst.weight.data();
    const float* gw = src.gradWeight.data();
    for (std::size_t i = 0; i < dst.weight.size(); ++i)
        w[i] -= lr * gw[i];
    float* bias = dst.bias.data();
    const float* gb = src.gradBias.data();
    for (std::size_t i = 0; i < dst.bias.size(); ++i)
        bias[i] -= lr * gb[i];
}

/**
 * One elastic-averaging pass over a parameter pair: pulls @p x toward
 * @p c and @p c toward @p x by @p alpha of their difference. Racy
 * because ShadowSync's shadow thread averages a worker's parameters
 * while that worker is mid-forward (the worker only locks around its
 * optimizer step — sync stays off the critical path by design).
 */
RECSIM_NO_SANITIZE_THREAD inline void
elasticAverage(float* c, float* x, std::size_t n, float alpha)
{
    for (std::size_t j = 0; j < n; ++j) {
        const float diff = x[j] - c[j];
        x[j] -= alpha * diff;
        c[j] += alpha * diff;
    }
}

} // namespace racy
} // namespace train
} // namespace recsim
