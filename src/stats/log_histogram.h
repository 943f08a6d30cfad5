/**
 * @file
 * Mergeable log-bucketed histogram (DDSketch/HDR-style) with a
 * documented relative quantile error bound, plus a windowed wrapper
 * that buckets observations by time so serving can report rolling
 * p50/p95/p99 per window instead of only end-of-replay.
 *
 * Why not SampleSet/Histogram: the serving batch-retire path records
 * latencies from whichever thread completes a batch, and the exact
 * containers either keep every sample (unbounded memory, O(n log n)
 * quantiles) or lock around every add. LogHistogram bins are
 * std::atomic, so add() is wait-free (one index computation plus a
 * relaxed fetch_add) and two histograms recorded on different threads
 * or hosts merge by adding bins — the fleet-accounting property the
 * paper's always-on per-op profiling relies on.
 *
 * Error bound: with relative_error a, bucket i covers
 * (gamma^(i-1), gamma^i] where gamma = (1+a)/(1-a), and quantile()
 * returns the bucket's harmonic midpoint 2*gamma^i/(gamma+1). Any
 * value v in a bucket therefore satisfies |est - v| <= a * v: every
 * reported quantile is within relative_error of an actual sample at
 * that rank (tests/test_stats.cc pins this against the exact
 * stats::percentile oracle). Values outside [min_value, max_value]
 * clamp into the edge buckets and lose the bound (counted, so callers
 * can see it happening).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats/sample_set.h"

namespace recsim {
namespace stats {

/**
 * Plain-value copy of a LogHistogram's state: bin counts plus exact
 * count/sum/min/max. Snapshots are what quantile math, merging across
 * windows and the exporters operate on, so the atomic container is
 * only ever read with relaxed loads and never copied.
 */
struct LogHistogramSnapshot
{
    double relative_error = 0.0;
    double gamma = 1.0;
    double min_value = 0.0;
    /** Lowest bucket index covered (bucket 0 of `bins`). */
    int index_offset = 0;
    std::vector<uint64_t> bins;
    uint64_t count = 0;
    double sum = 0.0;
    /** Exact extremes (not bucketed). count == 0 => both 0. */
    double min = 0.0;
    double max = 0.0;

    bool empty() const { return count == 0; }
    double mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }

    /**
     * Value within relative_error of the order statistic at
     * nearest-rank position round(q * (count - 1)). @p q in [0, 1];
     * returns 0 when empty. Monotone in q. The exact min/max are
     * substituted at the extremes so quantile(0)/quantile(1) are
     * exact.
     */
    double quantile(double q) const;

    /** Exclusive upper edge of bucket @p i (gamma^(index_offset+i)). */
    double binUpperEdge(std::size_t i) const;

    /** p50/p95/p99 + mean/max, mirroring stats::tailSummary. */
    TailSummary tail() const;

    /** Add @p other's bins/count/sum and widen min/max. The two must
     *  share bucketing parameters (checked). */
    void mergeFrom(const LogHistogramSnapshot& other);
};

/**
 * Thread-safe log-bucketed histogram. add() is wait-free: one log to
 * find the bucket, relaxed atomic increments for the bin, count and
 * sum, CAS loops for the exact min/max. All reads go through
 * snapshot().
 */
class LogHistogram
{
  public:
    /**
     * @param relative_error Quantile error bound a in (0, 1), see file
     *                       comment. Default 1%.
     * @param min_value      Smallest distinguishable value; anything
     *                       below (including <= 0) clamps into the
     *                       lowest bucket.
     * @param max_value      Largest distinguishable value; larger
     *                       values clamp into the highest bucket.
     * Bucket count is log(max/min)/log(gamma) + 2 — about 1.4k bins
     * (11 KB) at the defaults.
     */
    explicit LogHistogram(double relative_error = 0.01,
                          double min_value = 1e-9,
                          double max_value = 1e6);

    /** Record one observation. Thread-safe, wait-free. */
    void add(double v);

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double relativeError() const { return rel_err_; }
    std::size_t numBins() const { return bins_.size(); }

    /** Plain-value copy of the current state. Thread-safe. */
    LogHistogramSnapshot snapshot() const;

    /** Convenience: snapshot().quantile(q). */
    double quantile(double q) const { return snapshot().quantile(q); }

    /** Add another histogram's bins into this one (same parameters,
     *  checked). Thread-safe on both sides. */
    void merge(const LogHistogram& other);

  private:
    std::size_t binIndex(double v) const;

    double rel_err_;
    double gamma_;
    double inv_log_gamma_;
    double min_value_;
    double max_value_;
    int index_offset_;
    std::vector<std::atomic<uint64_t>> bins_;
    std::atomic<uint64_t> count_{0};
    /** Bit pattern of the running double sum (CAS-accumulated). */
    std::atomic<uint64_t> sum_bits_;
    std::atomic<uint64_t> min_bits_;
    std::atomic<uint64_t> max_bits_;
};

/** One time window's worth of a WindowedHistogram. */
struct WindowSummary
{
    std::size_t index = 0;   ///< floor(t / window_seconds).
    double start_s = 0.0;
    double end_s = 0.0;
    TailSummary tail;
};

/**
 * Time-windowed percentile recorder: a lazily-allocated array of
 * LogHistograms, one per fixed-width time window. add(t, v) routes v
 * into window floor(t / window_seconds); windows() summarizes every
 * non-empty window in time order and tail() folds them all into one
 * end-to-end summary (bin-exact merge, same error bound).
 *
 * Thread safety: add() takes a lock only on the first observation of
 * a window (to allocate its histogram); afterwards it is an acquire
 * load plus LogHistogram::add. Time may come from any clock — the
 * serving replay feeds its *virtual* completion times, so windows are
 * virtual-time slices of the trace.
 *
 * Memory is bounded: observations at t >= max_windows * window_seconds
 * clamp into the last window (clamped() counts them).
 */
class WindowedHistogram
{
  public:
    explicit WindowedHistogram(double window_seconds,
                               std::size_t max_windows = 4096,
                               double relative_error = 0.01,
                               double min_value = 1e-9,
                               double max_value = 1e6);
    ~WindowedHistogram();

    WindowedHistogram(const WindowedHistogram&) = delete;
    WindowedHistogram& operator=(const WindowedHistogram&) = delete;

    /** Record @p value at time @p t_seconds (>= 0). Thread-safe. */
    void add(double t_seconds, double value);

    double relativeError() const { return rel_err_; }

    /** Observations clamped into the last window. */
    uint64_t clamped() const
    {
        return clamped_.load(std::memory_order_relaxed);
    }

    /** Total observations across all windows. Thread-safe. */
    uint64_t count() const;

    /** Per-window summaries, non-empty windows in time order. */
    std::vector<WindowSummary> windows() const;

    /** All windows merged: the end-to-end tail summary. */
    TailSummary tail() const;

    /** Merged snapshot across windows (for exporters). */
    LogHistogramSnapshot snapshot() const;

  private:
    double window_s_;
    double rel_err_;
    double min_value_;
    double max_value_;
    std::vector<std::atomic<LogHistogram*>> slots_;
    std::mutex create_mutex_;
    std::atomic<uint64_t> clamped_{0};
};

} // namespace stats
} // namespace recsim
