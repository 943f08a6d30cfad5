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

/** Racy SGD push of @p dim gradient values into shared parameters:
 *  one embedding row, or a dense layer's weight or bias. */
RECSIM_NO_SANITIZE_THREAD inline void
pushRow(float* row, const float* grad, std::size_t dim, float lr)
{
    for (std::size_t j = 0; j < dim; ++j)
        row[j] -= lr * grad[j];
}

/**
 * Pull the weight and bias of every dense layer of @p shared
 * (denseLayers(): the MLPs' and the projections') into @p replica.
 * Lock-free: another worker may be pushing into them.
 */
inline void
pullDenseParams(const model::Dlrm& shared, model::Dlrm& replica)
{
    const auto& from = shared.denseLayers();
    const auto& to = replica.denseLayers();
    for (std::size_t l = 0; l < from.size(); ++l) {
        copyTensor(from[l]->weight, to[l]->weight);
        copyTensor(from[l]->bias, to[l]->bias);
    }
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
 * SGD-push the gradient of every dense layer of @p replica
 * (denseLayers(): the MLPs' and the projections') into the matching
 * layer of @p shared, without locking (the Hogwild update).
 */
inline void
pushDenseGrads(model::Dlrm& shared, const model::Dlrm& replica, float lr)
{
    const auto& dst = shared.denseLayers();
    const auto& src = replica.denseLayers();
    for (std::size_t l = 0; l < dst.size(); ++l) {
        pushRow(dst[l]->weight.data(), src[l]->gradWeight.data(),
                dst[l]->weight.size(), lr);
        pushRow(dst[l]->bias.data(), src[l]->gradBias.data(),
                dst[l]->bias.size(), lr);
    }
}

/**
 * One elastic-averaging pass over a parameter pair: pulls @p x toward
 * @p c and @p c toward @p x by @p alpha of their difference. EASGD
 * runs it under its center lock. It is racy because ShadowSync's
 * shadow thread averages a worker's parameters while that worker is
 * mid-forward (the worker only locks around its optimizer step — sync
 * stays off the critical path by design).
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

/** elasticAverage() over the weight and bias of every dense layer
 *  (denseLayers()) of @p center and @p replica. */
inline void
elasticAverage(model::Dlrm& center, model::Dlrm& replica, float alpha)
{
    const auto& c = center.denseLayers();
    const auto& x = replica.denseLayers();
    for (std::size_t l = 0; l < c.size(); ++l) {
        elasticAverage(c[l]->weight.data(), x[l]->weight.data(),
                       c[l]->weight.size(), alpha);
        elasticAverage(c[l]->bias.data(), x[l]->bias.data(),
                       c[l]->bias.size(), alpha);
    }
}

} // namespace racy
} // namespace train
} // namespace recsim
