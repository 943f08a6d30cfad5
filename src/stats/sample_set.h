/**
 * @file
 * Batch sample container with exact quantiles and correlations; the
 * fleet analyses (Figs 5, 6, 9) summarize their run populations with it.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace recsim {
namespace stats {

/** Five-number-plus summary of a sample set. */
struct Summary
{
    std::size_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double p25 = 0.0;
    double median = 0.0;
    double p75 = 0.0;
    double p95 = 0.0;
    double max = 0.0;
};

/**
 * Owning container of observations with exact order statistics.
 * Unlike Histogram this keeps every sample, so quantiles are exact.
 */
class SampleSet
{
  public:
    SampleSet() = default;
    explicit SampleSet(std::vector<double> values);

    void add(double x) { values_.push_back(x); }
    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    const std::vector<double>& values() const { return values_; }

    /** Exact quantile by linear interpolation; @p q in [0, 1]. */
    double quantile(double q) const;

    double mean() const;
    double stddev() const;

    /** Full summary in one pass. */
    Summary summarize() const;

    /** One-line rendering of summarize(), for bench output. */
    std::string describe(int precision = 2) const;

  private:
    std::vector<double> values_;
};

/**
 * Tail-latency summary of a sample population: the serving metrics the
 * inference literature reports against SLA targets (p50/p95/p99).
 */
struct TailSummary
{
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/**
 * Exact percentile of @p values by linear interpolation between order
 * statistics: position p/100 * (n-1) in the sorted sample (the same
 * rule as SampleSet::quantile, exposed over a raw vector so callers
 * need not copy into a SampleSet first). @p pct in [0, 100]; a
 * single-element sample returns that element for every percentile.
 * @pre @p values is non-empty.
 */
double percentile(std::vector<double> values, double pct);

/** Exact p50/p95/p99 + mean/max of @p values in one sort. */
TailSummary tailSummary(std::vector<double> values);

/** Pearson correlation of two equal-length series. */
double pearson(const std::vector<double>& x, const std::vector<double>& y);

/** Spearman rank correlation of two equal-length series. */
double spearman(const std::vector<double>& x, const std::vector<double>& y);

} // namespace stats
} // namespace recsim
