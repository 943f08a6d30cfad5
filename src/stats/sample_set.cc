#include "stats/sample_set.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stats/running_stat.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace recsim {
namespace stats {

SampleSet::SampleSet(std::vector<double> values)
    : values_(std::move(values))
{
}

double
SampleSet::quantile(double q) const
{
    RECSIM_ASSERT(!values_.empty(), "quantile of empty sample set");
    RECSIM_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
SampleSet::mean() const
{
    if (values_.empty())
        return 0.0;
    return std::accumulate(values_.begin(), values_.end(), 0.0) /
        static_cast<double>(values_.size());
}

double
SampleSet::stddev() const
{
    RunningStat rs;
    for (double v : values_)
        rs.add(v);
    return rs.stddev();
}

Summary
SampleSet::summarize() const
{
    Summary s;
    s.count = values_.size();
    if (values_.empty())
        return s;
    RunningStat rs;
    for (double v : values_)
        rs.add(v);
    s.mean = rs.mean();
    s.stddev = rs.stddev();
    s.min = rs.min();
    s.max = rs.max();
    s.p25 = quantile(0.25);
    s.median = quantile(0.50);
    s.p75 = quantile(0.75);
    s.p95 = quantile(0.95);
    return s;
}

std::string
SampleSet::describe(int precision) const
{
    const Summary s = summarize();
    return util::format(
        "n={} mean={} sd={} min={} p25={} p50={} p75={} p95={} max={}",
        s.count,
        util::fixed(s.mean, precision), util::fixed(s.stddev, precision),
        util::fixed(s.min, precision), util::fixed(s.p25, precision),
        util::fixed(s.median, precision), util::fixed(s.p75, precision),
        util::fixed(s.p95, precision), util::fixed(s.max, precision));
}

namespace {

/** Interpolated order statistic of an already-sorted sample. */
double
sortedPercentile(const std::vector<double>& sorted, double pct)
{
    const double pos =
        pct / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

double
percentile(std::vector<double> values, double pct)
{
    RECSIM_ASSERT(!values.empty(), "percentile of empty sample");
    RECSIM_ASSERT(pct >= 0.0 && pct <= 100.0,
                  "percentile out of range: {}", pct);
    std::sort(values.begin(), values.end());
    return sortedPercentile(values, pct);
}

TailSummary
tailSummary(std::vector<double> values)
{
    TailSummary t;
    t.count = values.size();
    if (values.empty())
        return t;
    std::sort(values.begin(), values.end());
    t.mean = std::accumulate(values.begin(), values.end(), 0.0) /
        static_cast<double>(values.size());
    t.p50 = sortedPercentile(values, 50.0);
    t.p95 = sortedPercentile(values, 95.0);
    t.p99 = sortedPercentile(values, 99.0);
    t.max = values.back();
    return t;
}

double
pearson(const std::vector<double>& x, const std::vector<double>& y)
{
    RECSIM_ASSERT(x.size() == y.size(), "pearson length mismatch");
    RECSIM_ASSERT(x.size() >= 2, "pearson needs at least two points");
    const double n = static_cast<double>(x.size());
    const double mx = std::accumulate(x.begin(), x.end(), 0.0) / n;
    const double my = std::accumulate(y.begin(), y.end(), 0.0) / n;
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double dx = x[i] - mx;
        const double dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

namespace {

/** Fractional ranks with tie-averaging. */
std::vector<double>
ranks(const std::vector<double>& v)
{
    std::vector<std::size_t> order(v.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    std::size_t i = 0;
    while (i < order.size()) {
        std::size_t j = i;
        while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]])
            ++j;
        const double avg = 0.5 * static_cast<double>(i + j) + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            r[order[k]] = avg;
        i = j + 1;
    }
    return r;
}

} // namespace

double
spearman(const std::vector<double>& x, const std::vector<double>& y)
{
    return pearson(ranks(x), ranks(y));
}

} // namespace stats
} // namespace recsim
