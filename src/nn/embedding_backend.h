/**
 * @file
 * Pluggable storage backends for embedding tables. EmbeddingBag owns
 * the parameter tensor and the batch-parallel orchestration; a backend
 * owns how lookups and sparse updates touch memory — which tier a row
 * lives in and how many bytes each access is charged.
 *
 * The contract every backend must honor: **lookup and update results
 * are bitwise-equal to DramBackend at any thread count**. Backends may
 * differ only in accounting (per-tier byte/hit counters) and in the
 * bandwidth a real machine would observe; they may never reorder or
 * re-associate the float arithmetic. DramBackend and CachedBackend
 * both gather through one shared kernel, so equality holds by
 * construction rather than by test alone (the tests check it anyway).
 *
 * CachedBackend models a small hot tier (HBM, on-package SRAM, or a
 * pinned DRAM partition) in front of the flat table: a frequency-built
 * top-K hot row set, refreshed every few batches, classifies each
 * lookup as a hot hit or a cold miss. Rows are *not* physically copied
 * — optimizers write table rows in place, so a copy would go stale and
 * break bitwise equality. Only the measured hit rates and charged
 * bytes change; those feed the cost model / DES tier terms and the
 * predicted-vs-measured validation in bench/ext_caching.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/embedding_bag.h"
#include "tensor/tensor.h"

namespace recsim {
namespace nn {

/** Per-tier access accounting, cumulative since the last reset. */
struct EmbeddingTierStats
{
    uint64_t hot_lookups = 0;    ///< Lookups served by the hot tier.
    uint64_t cold_lookups = 0;   ///< Lookups served by the slow tier.
    uint64_t hot_read_bytes = 0;
    uint64_t cold_read_bytes = 0;
    uint64_t hot_write_bytes = 0;   ///< Optimizer write-through, hot rows.
    uint64_t cold_write_bytes = 0;  ///< Optimizer write-through, cold rows.
    uint64_t batches = 0;        ///< Forward batches observed.

    uint64_t lookups() const { return hot_lookups + cold_lookups; }

    /** Fraction of lookups served hot (0 when nothing was looked up). */
    double hitRate() const
    {
        const uint64_t n = lookups();
        return n ? static_cast<double>(hot_lookups) /
                static_cast<double>(n)
                 : 0.0;
    }
};

/**
 * Storage backend interface. One instance serves one EmbeddingBag (the
 * bag installs itself as the single caller); forwardRange() is invoked
 * concurrently from thread-pool chunks, every other call on one
 * instance is serial. Instances of different tables do run
 * concurrently: the executor's waves look tables up side by side, and
 * the fused training step (train::GraphExecutor::trainStep) runs each
 * table's noteBackward() and update on its own worker.
 */
class EmbeddingBackend
{
  public:
    virtual ~EmbeddingBackend() = default;

    /** Stable identifier for configs/JSON ("dram", "cached"). */
    virtual const char* kind() const = 0;

    /**
     * Gather-and-pool examples [e0, e1) of @p batch from @p table into
     * @p out (pre-sized [B, dim], zeroed). Called concurrently for
     * disjoint chunks; must only mutate rows [e0, e1) of @p out and
     * the backend's own atomic counters.
     */
    virtual void forwardRange(const tensor::Tensor& table,
                              uint64_t hash_size, std::size_t dim,
                              Pooling pooling, const SparseBatch& batch,
                              tensor::Tensor& out, std::size_t e0,
                              std::size_t e1) = 0;

    /**
     * Serial hook after every chunk of one forward batch has finished:
     * frequency accumulation, hot-set refresh, obs export. Never
     * called concurrently with forwardRange() on this instance.
     */
    virtual void endForwardBatch(const SparseBatch& batch,
                                 uint64_t hash_size, std::size_t dim)
    {
        (void)batch;
        (void)hash_size;
        (void)dim;
    }

    /**
     * Accounting hook for EmbeddingBag::backward(): the pooled
     * backward kernel is table-layout independent (it reads only dy),
     * so the bag owns the arithmetic and backends observe the sparse
     * gradient it produced to charge per-tier gradient traffic.
     */
    virtual void noteBackward(const SparseGrad& grad, std::size_t dim)
    {
        (void)grad;
        (void)dim;
    }

    /** Sparse SGD row update: row -= lr * g, plus write accounting. */
    virtual void applySgd(tensor::Tensor& table, std::size_t dim,
                          const SparseGrad& grad, float lr);

    /**
     * Row-wise Adagrad update against the optimizer-owned accumulator
     * @p acc (one entry per table row), plus write accounting.
     */
    virtual void applyAdagrad(tensor::Tensor& table, std::size_t dim,
                              const SparseGrad& grad,
                              std::vector<float>& acc, float lr,
                              float eps);

    /** Bytes of hot-tier capacity this backend models (0 = flat DRAM). */
    virtual std::size_t hotTierBytes() const { return 0; }

    /** Cumulative per-tier accounting. */
    virtual EmbeddingTierStats stats() const = 0;

    virtual void resetStats() = 0;
};

/**
 * The flat single-tier table: every access is charged to the cold
 * (DRAM) tier. This is byte-for-byte the pre-refactor EmbeddingBag
 * behavior and the reference all other backends must match.
 */
class DramBackend : public EmbeddingBackend
{
  public:
    const char* kind() const override { return "dram"; }

    void forwardRange(const tensor::Tensor& table, uint64_t hash_size,
                      std::size_t dim, Pooling pooling,
                      const SparseBatch& batch, tensor::Tensor& out,
                      std::size_t e0, std::size_t e1) override;

    void endForwardBatch(const SparseBatch& batch, uint64_t hash_size,
                         std::size_t dim) override;

    void noteBackward(const SparseGrad& grad, std::size_t dim) override;

    void applySgd(tensor::Tensor& table, std::size_t dim,
                  const SparseGrad& grad, float lr) override;

    void applyAdagrad(tensor::Tensor& table, std::size_t dim,
                      const SparseGrad& grad, std::vector<float>& acc,
                      float lr, float eps) override;

    EmbeddingTierStats stats() const override;
    void resetStats() override;

  private:
    std::atomic<uint64_t> lookups_{0};
    std::atomic<uint64_t> read_bytes_{0};
    /** One instance's updates are serial; no atomic needed. */
    uint64_t write_bytes_ = 0;
    uint64_t grad_bytes_ = 0;
    uint64_t batches_ = 0;
};

/** Knobs for CachedBackend. */
struct CachedBackendConfig
{
    /** Hot-tier capacity in rows (converted from bytes by callers). */
    std::size_t hot_rows = 0;
    /** Forward batches between hot-set rebuilds. */
    std::size_t refresh_every = 8;
    /**
     * Right-shift applied to every frequency count at each rebuild
     * (exponential aging). 0 keeps counts cumulative — correct for the
     * stationary Zipf traffic the synthetic generator produces.
     */
    unsigned decay_shift = 0;
    /**
     * obs label, e.g. "emb.t3". When non-empty the backend exports
     * `<label>.cache.hot_lookups` / `.cold_lookups` counters to
     * MetricsRegistry per batch and a `<label>.cache.hit_rate` series
     * to the FlightRecorder (value = batch hit rate, rows = batch
     * lookups).
     */
    std::string label;
};

/**
 * Two-tier backend: a frequency-built top-K hot set in front of the
 * flat table. Classification is against a read-only bitmap during the
 * parallel gather (per-chunk local counts, one atomic add per chunk,
 * so measured totals are bit-identical at any thread count); frequency
 * accumulation and the top-K rebuild run serially in
 * endForwardBatch(). Ties in the rebuild break deterministically
 * (higher count first, then lower row id).
 *
 * Memory: ~5 bytes per table row (uint32 frequency + membership byte),
 * so it is meant for the hash sizes the executable paths train
 * (<= tens of millions of rows), not for pricing billion-row tables —
 * the analytical cost model covers those without instantiating one.
 */
class CachedBackend : public EmbeddingBackend
{
  public:
    explicit CachedBackend(CachedBackendConfig config);

    const char* kind() const override { return "cached"; }

    void forwardRange(const tensor::Tensor& table, uint64_t hash_size,
                      std::size_t dim, Pooling pooling,
                      const SparseBatch& batch, tensor::Tensor& out,
                      std::size_t e0, std::size_t e1) override;

    void endForwardBatch(const SparseBatch& batch, uint64_t hash_size,
                         std::size_t dim) override;

    void noteBackward(const SparseGrad& grad, std::size_t dim) override;

    void applySgd(tensor::Tensor& table, std::size_t dim,
                  const SparseGrad& grad, float lr) override;

    void applyAdagrad(tensor::Tensor& table, std::size_t dim,
                      const SparseGrad& grad, std::vector<float>& acc,
                      float lr, float eps) override;

    std::size_t hotTierBytes() const override;

    EmbeddingTierStats stats() const override;
    void resetStats() override;

    const CachedBackendConfig& config() const { return config_; }

    /** Rows currently resident in the hot set. */
    std::size_t hotSetSize() const { return hot_set_size_; }

    /** Hot-set rebuilds performed so far. */
    uint64_t refreshes() const { return refreshes_; }

    /** True iff hashed @p row_id is currently hot (test hook). */
    bool isHot(uint64_t row_id) const
    {
        return row_id < hot_.size() && hot_[row_id] != 0;
    }

  private:
    void ensureSized(uint64_t hash_size, std::size_t dim);
    void rebuildHotSet();
    void chargeUpdate(const SparseGrad& grad, std::size_t dim);

    CachedBackendConfig config_;
    std::size_t dim_ = 0;  ///< Learned from the first batch.

    std::vector<uint8_t> hot_;     ///< Membership bitmap, [hash_size].
    std::vector<uint32_t> freq_;   ///< Saturating lookup counts.
    std::size_t hot_set_size_ = 0;
    std::vector<uint64_t> candidates_;  ///< Rebuild scratch.

    std::atomic<uint64_t> hot_lookups_{0};
    std::atomic<uint64_t> cold_lookups_{0};
    uint64_t hot_write_bytes_ = 0;
    uint64_t cold_write_bytes_ = 0;
    uint64_t hot_grad_bytes_ = 0;
    uint64_t cold_grad_bytes_ = 0;
    uint64_t batches_ = 0;
    uint64_t refreshes_ = 0;

    /** Totals at the last endForwardBatch, for per-batch obs deltas. */
    uint64_t flushed_hot_ = 0;
    uint64_t flushed_cold_ = 0;

    uint32_t hit_rate_channel_ = 0;
    bool channel_interned_ = false;
    std::string metric_hot_;
    std::string metric_cold_;
};

/** Shorthand: a DramBackend on the heap (the EmbeddingBag default). */
std::shared_ptr<EmbeddingBackend> makeDramBackend();

/** Shorthand: a CachedBackend with @p config. */
std::shared_ptr<EmbeddingBackend>
makeCachedBackend(CachedBackendConfig config);

} // namespace nn
} // namespace recsim
