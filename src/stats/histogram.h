/**
 * @file
 * Linear- and log-binned histograms with ASCII rendering, used by the
 * bench harnesses to reproduce the paper's distribution figures
 * (Figs 5, 7, 9).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace recsim {
namespace stats {

/** Bin scale for Histogram. */
enum class BinScale { Linear, Log10 };

/**
 * Fixed-range histogram. Out-of-range samples are clamped into the first
 * or last bin (and counted separately as underflow/overflow).
 *
 * NOT thread-safe: add() mutates bin counts and totals without
 * synchronization, so concurrent recording (e.g. serving workers
 * retiring batches) must go through stats::WindowedHistogram (atomic
 * bins) or obs::MetricsRegistry::observe() (which locks).
 * Single-threaded bench/fleet accumulation stays lock-free here.
 */
class Histogram
{
  public:
    /**
     * @param lo    Lower bound of the histogram range.
     * @param hi    Upper bound; must be > lo (and > 0 for Log10 scale).
     * @param bins  Number of bins; must be >= 1.
     * @param scale Linear or logarithmic bin edges.
     */
    Histogram(double lo, double hi, std::size_t bins,
              BinScale scale = BinScale::Linear);

    /** Add one sample. */
    void add(double x);

    /** Add @p weight worth of samples at @p x. */
    void add(double x, double weight);

    std::size_t numBins() const { return counts_.size(); }
    double binCount(std::size_t i) const { return counts_[i]; }

    /** Inclusive lower edge of bin @p i. */
    double binLo(std::size_t i) const;

    /** Exclusive upper edge of bin @p i. */
    double binHi(std::size_t i) const;

    double totalWeight() const { return total_; }
    double underflow() const { return underflow_; }
    double overflow() const { return overflow_; }

    /** Fraction of total weight in bin @p i (0 when empty). */
    double binFraction(std::size_t i) const;

    /**
     * Weighted quantile estimate via linear interpolation within the
     * containing bin. @p q in [0, 1].
     */
    double quantile(double q) const;

    /** Horizontal ASCII bar chart, one row per bin. */
    std::string render(std::size_t max_bar_width = 50) const;

  private:
    std::size_t binIndex(double x) const;
    double toScale(double x) const;

    double lo_, hi_;
    BinScale scale_;
    double slo_, shi_;
    std::vector<double> counts_;
    double total_ = 0.0;
    double underflow_ = 0.0;
    double overflow_ = 0.0;
};

} // namespace stats
} // namespace recsim
