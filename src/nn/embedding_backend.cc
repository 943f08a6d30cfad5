#include "nn/embedding_backend.h"

#include <algorithm>
#include <cmath>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace recsim {
namespace nn {

namespace {

/**
 * Software-prefetch distances, in lookups (gather) and updated rows
 * (sparse update). Table rows are reached through random ids, so the
 * hardware prefetchers never see them coming; a prefetch started this
 * many rows ahead overlaps their misses with the rows in between.
 * Measured on a 4-core Xeon (Sapphire Rapids) KVM guest at pool 1,
 * Zipf 1.05 ids, median of 6 interleaved rounds per distance
 * (none / 4 / 8 / 16):
 *  - 32 tables of 4k-32k rows at dim 32, 256 x 24 lookups each
 *    (perfbench train_emb's shape): gather 15.7 / 14.1 / 12.4 / 17.7
 *    ns per lookup, Adagrad 41.4 / 32.2 / 34.9 / 43.2 and SGD
 *    21.9 / 18.8 / 18.8 / 25.8 ns per row;
 *  - one 1M-row table at dim 64, 2048 x 16 lookups: gather
 *    55.5 / 36.3 / 29.9 / 33.1 ns per lookup.
 * A prefetch is only a hint, so neither distance changes any result.
 */
constexpr std::size_t kGatherAhead = 8;
constexpr std::size_t kUpdateAhead = 8;

/** Hint that every cache line of the @p bytes-long row at @p p is
 *  about to be touched. */
inline void
prefetchRow(const float* p, std::size_t bytes)
{
    const char* c = reinterpret_cast<const char*>(p);
    for (std::size_t off = 0; off < bytes; off += 64)
        __builtin_prefetch(c + off);
    // A row that does not start on a line boundary spills into one
    // more line than bytes / 64 covers.
    __builtin_prefetch(c + bytes - 1);
}

/**
 * The one gather-and-pool kernel. Every backend funnels through this
 * exact loop, so cross-backend bitwise equality of the pooled output
 * holds by construction: same iteration order, same accumulation
 * order, same scaling.
 */
inline void
gatherRange(const float* table_data, uint64_t hash, std::size_t dim,
            Pooling pooling, const SparseBatch& batch, float* out_data,
            std::size_t e0, std::size_t e1)
{
    // ring[k % kGatherAhead] holds lookup k's hashed row id: the row
    // kGatherAhead lookups ahead is hashed and prefetched as lookup k
    // accumulates. The look-ahead stops at the chunk's last lookup, so
    // it never reads an index past the chunk (or the batch).
    const std::size_t row_bytes = dim * sizeof(float);
    const std::size_t k_first = batch.offsets[e0];
    const std::size_t k_last = batch.offsets[e1];
    std::size_t ring[kGatherAhead];
    for (std::size_t k = k_first;
         k < k_last && k < k_first + kGatherAhead; ++k) {
        ring[k % kGatherAhead] =
            static_cast<std::size_t>(batch.indices[k] % hash);
        prefetchRow(table_data + ring[k % kGatherAhead] * dim,
                    row_bytes);
    }
    for (std::size_t ex = e0; ex < e1; ++ex) {
        const std::size_t begin = batch.offsets[ex];
        const std::size_t end = batch.offsets[ex + 1];
        RECSIM_ASSERT(begin <= end, "corrupt SparseBatch offsets");
        float* orow = out_data + ex * dim;
        for (std::size_t k = begin; k < end; ++k) {
            std::size_t& slot = ring[k % kGatherAhead];
            const float* erow = table_data + slot * dim;
            if (k + kGatherAhead < k_last) {
                slot = static_cast<std::size_t>(
                    batch.indices[k + kGatherAhead] % hash);
                prefetchRow(table_data + slot * dim, row_bytes);
            }
            for (std::size_t j = 0; j < dim; ++j)
                orow[j] += erow[j];
        }
        if (pooling == Pooling::Mean && end > begin) {
            const float inv = 1.0f / static_cast<float>(end - begin);
            for (std::size_t j = 0; j < dim; ++j)
                orow[j] *= inv;
        }
    }
}

/** Sparse SGD row arithmetic, identical for every backend. */
inline void
sgdKernel(tensor::Tensor& table, std::size_t dim, const SparseGrad& grad,
          float lr)
{
    const std::size_t n = grad.rows.size();
    float* table_data = table.data();
    for (std::size_t r = 0; r < n; ++r) {
        if (r + kUpdateAhead < n) {
            const auto next =
                static_cast<std::size_t>(grad.rows[r + kUpdateAhead]);
            prefetchRow(table_data + next * dim, dim * sizeof(float));
        }
        float* row =
            table.row(static_cast<std::size_t>(grad.rows[r]));
        const float* g = grad.values.row(r);
        for (std::size_t j = 0; j < dim; ++j)
            row[j] -= lr * g[j];
    }
}

/** Row-wise Adagrad arithmetic, identical for every backend. */
inline void
adagradKernel(tensor::Tensor& table, std::size_t dim,
              const SparseGrad& grad, std::vector<float>& acc, float lr,
              float eps)
{
    const std::size_t n = grad.rows.size();
    float* table_data = table.data();
    for (std::size_t r = 0; r < n; ++r) {
        if (r + kUpdateAhead < n) {
            const auto next =
                static_cast<std::size_t>(grad.rows[r + kUpdateAhead]);
            prefetchRow(table_data + next * dim, dim * sizeof(float));
            __builtin_prefetch(acc.data() + next);
        }
        const auto row_id = static_cast<std::size_t>(grad.rows[r]);
        const float* g = grad.values.row(r);
        // Row-wise Adagrad: a single accumulator per row holding the
        // mean squared gradient across the row's elements.
        float sq = 0.0f;
        for (std::size_t j = 0; j < dim; ++j)
            sq += g[j] * g[j];
        acc[row_id] += sq / static_cast<float>(dim);
        const float denom = std::sqrt(acc[row_id]) + eps;
        float* row = table.row(row_id);
        for (std::size_t j = 0; j < dim; ++j)
            row[j] -= lr * g[j] / denom;
    }
}

} // namespace

void
EmbeddingBackend::applySgd(tensor::Tensor& table, std::size_t dim,
                           const SparseGrad& grad, float lr)
{
    sgdKernel(table, dim, grad, lr);
}

void
EmbeddingBackend::applyAdagrad(tensor::Tensor& table, std::size_t dim,
                               const SparseGrad& grad,
                               std::vector<float>& acc, float lr,
                               float eps)
{
    adagradKernel(table, dim, grad, acc, lr, eps);
}

// ---------------------------------------------------------------------------
// DramBackend

void
DramBackend::forwardRange(const tensor::Tensor& table, uint64_t hash_size,
                          std::size_t dim, Pooling pooling,
                          const SparseBatch& batch, tensor::Tensor& out,
                          std::size_t e0, std::size_t e1)
{
    gatherRange(table.data(), hash_size, dim, pooling, batch, out.data(),
                e0, e1);
    const uint64_t n = batch.offsets[e1] - batch.offsets[e0];
    // One relaxed add per chunk; integer adds commute, so the totals
    // are deterministic at any thread count.
    lookups_.fetch_add(n, std::memory_order_relaxed);
    read_bytes_.fetch_add(n * dim * sizeof(float),
                          std::memory_order_relaxed);
}

void
DramBackend::endForwardBatch(const SparseBatch& batch, uint64_t hash_size,
                             std::size_t dim)
{
    (void)batch;
    (void)hash_size;
    (void)dim;
    ++batches_;
}

void
DramBackend::noteBackward(const SparseGrad& grad, std::size_t dim)
{
    grad_bytes_ += grad.rows.size() * dim * sizeof(float);
}

void
DramBackend::applySgd(tensor::Tensor& table, std::size_t dim,
                      const SparseGrad& grad, float lr)
{
    sgdKernel(table, dim, grad, lr);
    write_bytes_ += grad.rows.size() * dim * sizeof(float);
}

void
DramBackend::applyAdagrad(tensor::Tensor& table, std::size_t dim,
                          const SparseGrad& grad, std::vector<float>& acc,
                          float lr, float eps)
{
    adagradKernel(table, dim, grad, acc, lr, eps);
    write_bytes_ += grad.rows.size() * dim * sizeof(float);
}

EmbeddingTierStats
DramBackend::stats() const
{
    EmbeddingTierStats s;
    s.cold_lookups = lookups_.load(std::memory_order_relaxed);
    s.cold_read_bytes = read_bytes_.load(std::memory_order_relaxed);
    s.cold_write_bytes = write_bytes_ + grad_bytes_;
    s.batches = batches_;
    return s;
}

void
DramBackend::resetStats()
{
    lookups_.store(0, std::memory_order_relaxed);
    read_bytes_.store(0, std::memory_order_relaxed);
    write_bytes_ = 0;
    grad_bytes_ = 0;
    batches_ = 0;
}

// ---------------------------------------------------------------------------
// CachedBackend

CachedBackend::CachedBackend(CachedBackendConfig config)
    : config_(std::move(config))
{
    RECSIM_ASSERT(config_.refresh_every > 0,
                  "CachedBackend refresh_every must be positive");
    if (!config_.label.empty()) {
        metric_hot_ = config_.label + ".cache.hot_lookups";
        metric_cold_ = config_.label + ".cache.cold_lookups";
    }
}

void
CachedBackend::ensureSized(uint64_t hash_size, std::size_t dim)
{
    if (hot_.size() != hash_size) {
        hot_.assign(static_cast<std::size_t>(hash_size), 0);
        freq_.assign(static_cast<std::size_t>(hash_size), 0);
        hot_set_size_ = 0;
        // A budget covering the whole table means the table is pinned
        // in the hot tier: mark every row hot up front instead of
        // waiting for each row's first (cold) touch.
        if (config_.hot_rows >= hash_size) {
            std::fill(hot_.begin(), hot_.end(), 1);
            hot_set_size_ = static_cast<std::size_t>(hash_size);
        }
    }
    dim_ = dim;
}

void
CachedBackend::forwardRange(const tensor::Tensor& table,
                            uint64_t hash_size, std::size_t dim,
                            Pooling pooling, const SparseBatch& batch,
                            tensor::Tensor& out, std::size_t e0,
                            std::size_t e1)
{
    gatherRange(table.data(), hash_size, dim, pooling, batch, out.data(),
                e0, e1);
    // Classify this chunk's lookups against the read-only hot bitmap
    // (only endForwardBatch mutates it, and never concurrently with
    // gathers). Local counts, one commutative atomic add per chunk:
    // totals are deterministic at any thread count.
    uint64_t hot = 0;
    uint64_t cold = 0;
    if (hot_.size() == hash_size) {
        const uint8_t* hot_map = hot_.data();
        const std::size_t begin = batch.offsets[e0];
        const std::size_t end = batch.offsets[e1];
        for (std::size_t k = begin; k < end; ++k) {
            const auto row_id =
                static_cast<std::size_t>(batch.indices[k] % hash_size);
            if (hot_map[row_id])
                ++hot;
            else
                ++cold;
        }
    } else {
        // First batch on a freshly installed backend: the bitmap is
        // sized in endForwardBatch, so everything is a cold miss.
        cold = batch.offsets[e1] - batch.offsets[e0];
    }
    hot_lookups_.fetch_add(hot, std::memory_order_relaxed);
    cold_lookups_.fetch_add(cold, std::memory_order_relaxed);
}

void
CachedBackend::endForwardBatch(const SparseBatch& batch,
                               uint64_t hash_size, std::size_t dim)
{
    ensureSized(hash_size, dim);
    for (const uint64_t raw : batch.indices) {
        const auto row_id =
            static_cast<std::size_t>(raw % hash_size);
        if (freq_[row_id] != UINT32_MAX)
            ++freq_[row_id];
    }
    ++batches_;
    if (batches_ % config_.refresh_every == 0)
        rebuildHotSet();

    const uint64_t hot = hot_lookups_.load(std::memory_order_relaxed);
    const uint64_t cold = cold_lookups_.load(std::memory_order_relaxed);
    const uint64_t dhot = hot - flushed_hot_;
    const uint64_t dcold = cold - flushed_cold_;
    flushed_hot_ = hot;
    flushed_cold_ = cold;
    if (config_.label.empty())
        return;
    auto& metrics = obs::MetricsRegistry::global();
    metrics.incr(metric_hot_, dhot);
    metrics.incr(metric_cold_, dcold);
    if (obs::recorderEnabled()) {
        auto& recorder = obs::FlightRecorder::global();
        if (!channel_interned_) {
            hit_rate_channel_ =
                recorder.internChannel(config_.label + ".cache.hit_rate");
            channel_interned_ = true;
        }
        const uint64_t n = dhot + dcold;
        const double rate =
            n ? static_cast<double>(dhot) / static_cast<double>(n) : 0.0;
        recorder.record(hit_rate_channel_, batches_, rate,
                        static_cast<uint32_t>(
                            std::min<uint64_t>(n, UINT32_MAX)));
    }
}

void
CachedBackend::rebuildHotSet()
{
    ++refreshes_;
    if (config_.hot_rows >= hot_.size()) {
        // Whole table pinned (ensureSized marked every row hot);
        // nothing to rank.
        return;
    }
    candidates_.clear();
    for (std::size_t r = 0; r < freq_.size(); ++r)
        if (freq_[r] != 0)
            candidates_.push_back(static_cast<uint64_t>(r));
    const std::size_t k =
        std::min(config_.hot_rows, candidates_.size());
    // Strict total order (count desc, row id asc) — no equal elements,
    // so nth_element yields one deterministic top-K.
    const auto hotter = [this](uint64_t a, uint64_t b) {
        if (freq_[a] != freq_[b])
            return freq_[a] > freq_[b];
        return a < b;
    };
    if (k > 0 && k < candidates_.size())
        std::nth_element(candidates_.begin(), candidates_.begin() + k,
                         candidates_.end(), hotter);
    std::fill(hot_.begin(), hot_.end(), 0);
    for (std::size_t i = 0; i < k; ++i)
        hot_[static_cast<std::size_t>(candidates_[i])] = 1;
    hot_set_size_ = k;
    if (config_.decay_shift > 0)
        for (auto& f : freq_)
            f >>= config_.decay_shift;
}

void
CachedBackend::chargeUpdate(const SparseGrad& grad, std::size_t dim)
{
    const uint64_t row_bytes = dim * sizeof(float);
    uint64_t hot = 0;
    for (const uint64_t row : grad.rows)
        if (isHot(row))
            ++hot;
    hot_write_bytes_ += hot * row_bytes;
    cold_write_bytes_ += (grad.rows.size() - hot) * row_bytes;
}

void
CachedBackend::noteBackward(const SparseGrad& grad, std::size_t dim)
{
    const uint64_t row_bytes = dim * sizeof(float);
    uint64_t hot = 0;
    for (const uint64_t row : grad.rows)
        if (isHot(row))
            ++hot;
    hot_grad_bytes_ += hot * row_bytes;
    cold_grad_bytes_ += (grad.rows.size() - hot) * row_bytes;
}

void
CachedBackend::applySgd(tensor::Tensor& table, std::size_t dim,
                        const SparseGrad& grad, float lr)
{
    EmbeddingBackend::applySgd(table, dim, grad, lr);
    chargeUpdate(grad, dim);
}

void
CachedBackend::applyAdagrad(tensor::Tensor& table, std::size_t dim,
                            const SparseGrad& grad,
                            std::vector<float>& acc, float lr, float eps)
{
    EmbeddingBackend::applyAdagrad(table, dim, grad, acc, lr, eps);
    chargeUpdate(grad, dim);
}

std::size_t
CachedBackend::hotTierBytes() const
{
    return config_.hot_rows * dim_ * sizeof(float);
}

EmbeddingTierStats
CachedBackend::stats() const
{
    EmbeddingTierStats s;
    s.hot_lookups = hot_lookups_.load(std::memory_order_relaxed);
    s.cold_lookups = cold_lookups_.load(std::memory_order_relaxed);
    const uint64_t row_bytes = dim_ * sizeof(float);
    s.hot_read_bytes = s.hot_lookups * row_bytes;
    s.cold_read_bytes = s.cold_lookups * row_bytes;
    s.hot_write_bytes = hot_write_bytes_ + hot_grad_bytes_;
    s.cold_write_bytes = cold_write_bytes_ + cold_grad_bytes_;
    s.batches = batches_;
    return s;
}

void
CachedBackend::resetStats()
{
    hot_lookups_.store(0, std::memory_order_relaxed);
    cold_lookups_.store(0, std::memory_order_relaxed);
    flushed_hot_ = 0;
    flushed_cold_ = 0;
    hot_write_bytes_ = 0;
    cold_write_bytes_ = 0;
    hot_grad_bytes_ = 0;
    cold_grad_bytes_ = 0;
}

std::shared_ptr<EmbeddingBackend>
makeDramBackend()
{
    return std::make_shared<DramBackend>();
}

std::shared_ptr<EmbeddingBackend>
makeCachedBackend(CachedBackendConfig config)
{
    return std::make_shared<CachedBackend>(std::move(config));
}

} // namespace nn
} // namespace recsim
