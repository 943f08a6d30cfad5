/**
 * @file
 * Unit tests for recsim::stats: Welford accumulation and merging,
 * histograms (linear and log), quantiles, KDE, correlations.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "stats/histogram.h"
#include "stats/kde.h"
#include "stats/log_histogram.h"
#include "stats/running_stat.h"
#include "stats/sample_set.h"
#include "util/random.h"

namespace recsim::stats {
namespace {

TEST(RunningStat, EmptyIsZero)
{
    RunningStat rs;
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_EQ(rs.mean(), 0.0);
    EXPECT_EQ(rs.variance(), 0.0);
}

TEST(RunningStat, MatchesNaiveComputation)
{
    RunningStat rs;
    const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
    double sum = 0.0;
    for (double x : xs) {
        rs.add(x);
        sum += x;
    }
    const double mean = sum / xs.size();
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= static_cast<double>(xs.size() - 1);

    EXPECT_EQ(rs.count(), xs.size());
    EXPECT_DOUBLE_EQ(rs.mean(), mean);
    EXPECT_NEAR(rs.variance(), var, 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), 1.0);
    EXPECT_DOUBLE_EQ(rs.max(), 16.0);
    EXPECT_DOUBLE_EQ(rs.sum(), sum);
}

TEST(RunningStat, MergeEqualsSequential)
{
    util::Rng rng(5);
    RunningStat all, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(3.0, 2.0);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, b;
    a.add(1.0);
    a.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, CountsFallInCorrectBins)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(5.5);
    h.add(9.99);
    EXPECT_DOUBLE_EQ(h.binCount(0), 1.0);
    EXPECT_DOUBLE_EQ(h.binCount(5), 1.0);
    EXPECT_DOUBLE_EQ(h.binCount(9), 1.0);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 3.0);
}

TEST(Histogram, OutOfRangeClampsAndCounts)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-5.0);
    h.add(7.0);
    EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
    EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
    EXPECT_DOUBLE_EQ(h.binCount(0), 1.0);
    EXPECT_DOUBLE_EQ(h.binCount(3), 1.0);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h(0.0, 1.0, 2);
    h.add(0.25, 3.0);
    EXPECT_DOUBLE_EQ(h.binCount(0), 3.0);
    EXPECT_DOUBLE_EQ(h.binFraction(0), 1.0);
}

TEST(Histogram, LogBinsCoverDecades)
{
    Histogram h(1.0, 1.0e6, 6, BinScale::Log10);
    EXPECT_NEAR(h.binLo(0), 1.0, 1e-9);
    EXPECT_NEAR(h.binHi(0), 10.0, 1e-6);
    EXPECT_NEAR(h.binLo(5), 1.0e5, 1.0);
    h.add(50000.0);
    EXPECT_DOUBLE_EQ(h.binCount(4), 1.0);
}

TEST(Histogram, QuantileOfUniformData)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i) + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(Histogram, RenderContainsBars)
{
    Histogram h(0.0, 2.0, 2);
    h.add(0.5);
    h.add(0.7);
    h.add(1.5);
    const std::string out = h.render(10);
    EXPECT_NE(out.find('#'), std::string::npos);
    EXPECT_NE(out.find('%'), std::string::npos);
}

TEST(HistogramDeath, InvalidRangePanics)
{
    EXPECT_DEATH(Histogram(1.0, 1.0, 4), "empty");
    EXPECT_DEATH(Histogram(-1.0, 5.0, 4, BinScale::Log10), "positive");
}

TEST(Kde, IntegratesToApproximatelyOne)
{
    util::Rng rng(3);
    std::vector<double> samples;
    for (int i = 0; i < 500; ++i)
        samples.push_back(rng.normal(10.0, 2.0));
    GaussianKde kde(samples);
    const auto curve = kde.evaluate(0.0, 20.0, 400);
    double integral = 0.0;
    for (std::size_t i = 1; i < curve.size(); ++i) {
        integral += 0.5 * (curve[i].density + curve[i - 1].density) *
            (curve[i].x - curve[i - 1].x);
    }
    EXPECT_NEAR(integral, 1.0, 0.03);
}

TEST(Kde, PeaksNearSampleMean)
{
    util::Rng rng(9);
    std::vector<double> samples;
    for (int i = 0; i < 500; ++i)
        samples.push_back(rng.normal(5.0, 1.0));
    GaussianKde kde(samples);
    const auto curve = kde.evaluate(0.0, 10.0, 101);
    double best_x = 0.0, best_d = 0.0;
    for (const auto& pt : curve) {
        if (pt.density > best_d) {
            best_d = pt.density;
            best_x = pt.x;
        }
    }
    EXPECT_NEAR(best_x, 5.0, 0.5);
}

TEST(Kde, ExplicitBandwidthIsUsed)
{
    GaussianKde kde({1.0, 2.0, 3.0}, 0.7);
    EXPECT_DOUBLE_EQ(kde.bandwidth(), 0.7);
}

TEST(Kde, DegenerateSamplesStillFinite)
{
    GaussianKde kde({2.0, 2.0, 2.0});
    EXPECT_GT(kde.density(2.0), 0.0);
    EXPECT_TRUE(std::isfinite(kde.density(100.0)));
}

TEST(SampleSet, QuantilesExact)
{
    SampleSet s({4.0, 1.0, 3.0, 2.0, 5.0});
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(SampleSet, SummaryFields)
{
    SampleSet s({1.0, 2.0, 3.0, 4.0});
    const Summary sum = s.summarize();
    EXPECT_EQ(sum.count, 4u);
    EXPECT_DOUBLE_EQ(sum.mean, 2.5);
    EXPECT_DOUBLE_EQ(sum.min, 1.0);
    EXPECT_DOUBLE_EQ(sum.max, 4.0);
    EXPECT_DOUBLE_EQ(sum.median, 2.5);
}

TEST(SampleSet, DescribeMentionsCount)
{
    SampleSet s({1.0, 2.0});
    EXPECT_NE(s.describe().find("n=2"), std::string::npos);
}

TEST(Percentile, SingleElementReturnsItAtEveryPercentile)
{
    const std::vector<double> one = {42.0};
    EXPECT_DOUBLE_EQ(percentile(one, 0.0), 42.0);
    EXPECT_DOUBLE_EQ(percentile(one, 50.0), 42.0);
    EXPECT_DOUBLE_EQ(percentile(one, 95.0), 42.0);
    EXPECT_DOUBLE_EQ(percentile(one, 99.0), 42.0);
    EXPECT_DOUBLE_EQ(percentile(one, 100.0), 42.0);
}

TEST(Percentile, HandComputedInterpolation)
{
    // Linear interpolation at position p/100 * (n-1); n = 10, values
    // 1..10 (unsorted input must not matter).
    const std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.5);    // pos 4.5
    EXPECT_NEAR(percentile(v, 95.0), 9.55, 1e-12); // pos 8.55
    EXPECT_DOUBLE_EQ(percentile(v, 99.0), 9.91);   // pos 8.91
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 10.0);
}

TEST(Percentile, DuplicateHeavySample)
{
    // n = 5: sorted {2, 2, 2, 2, 7}.
    const std::vector<double> v = {2.0, 7.0, 2.0, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.0);   // pos 2.0
    EXPECT_NEAR(percentile(v, 95.0), 6.0, 1e-12); // pos 3.8 -> 2+0.8*5
    EXPECT_DOUBLE_EQ(percentile(v, 99.0), 6.8);   // pos 3.96
    // All-duplicate sample: every percentile is the value.
    const std::vector<double> dup(7, 3.5);
    EXPECT_DOUBLE_EQ(percentile(dup, 50.0), 3.5);
    EXPECT_DOUBLE_EQ(percentile(dup, 99.0), 3.5);
}

TEST(Percentile, AgreesWithSampleSetQuantile)
{
    util::Rng rng(17);
    std::vector<double> v;
    for (int i = 0; i < 257; ++i)
        v.push_back(rng.lognormal(0.0, 1.0));
    const SampleSet s(v);
    for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(percentile(v, q * 100.0), s.quantile(q));
}

TEST(TailSummary, HandComputedFields)
{
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0, 5.0};
    const TailSummary t = tailSummary(v);
    EXPECT_EQ(t.count, 5u);
    EXPECT_DOUBLE_EQ(t.mean, 3.0);
    EXPECT_DOUBLE_EQ(t.p50, 3.0);
    EXPECT_DOUBLE_EQ(t.p95, 4.8);  // pos 3.8 -> 4 + 0.8 * 1
    EXPECT_DOUBLE_EQ(t.p99, 4.96);
    EXPECT_DOUBLE_EQ(t.max, 5.0);

    const TailSummary empty = tailSummary({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_DOUBLE_EQ(empty.max, 0.0);
}

TEST(Correlation, PerfectPositive)
{
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Correlation, PerfectNegative)
{
    const std::vector<double> x = {1, 2, 3, 4};
    const std::vector<double> y = {8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
    EXPECT_NEAR(spearman(x, y), -1.0, 1e-12);
}

TEST(Correlation, IndependentNearZero)
{
    util::Rng rng(21);
    std::vector<double> x, y;
    for (int i = 0; i < 5000; ++i) {
        x.push_back(rng.normal());
        y.push_back(rng.normal());
    }
    EXPECT_NEAR(pearson(x, y), 0.0, 0.05);
    EXPECT_NEAR(spearman(x, y), 0.0, 0.05);
}

TEST(Correlation, SpearmanInvariantToMonotoneTransform)
{
    util::Rng rng(25);
    std::vector<double> x, y, y_exp;
    for (int i = 0; i < 2000; ++i) {
        const double v = rng.normal();
        x.push_back(v);
        y.push_back(2.0 * v + 0.1 * rng.normal());
    }
    for (double v : y)
        y_exp.push_back(std::exp(v));
    EXPECT_NEAR(spearman(x, y), spearman(x, y_exp), 1e-9);
}

TEST(Correlation, ConstantSeriesGivesZero)
{
    const std::vector<double> x = {1, 1, 1};
    const std::vector<double> y = {1, 2, 3};
    EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

// ---------------------------------------------------------------------
// LogHistogram: the documented relative error bound against the exact
// order statistics, merging, clamping, concurrency.
// ---------------------------------------------------------------------

TEST(LogHistogram, EmptySnapshotIsAllZero)
{
    LogHistogram h;
    const LogHistogramSnapshot snap = h.snapshot();
    EXPECT_TRUE(snap.empty());
    EXPECT_EQ(snap.count, 0u);
    EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
    EXPECT_EQ(snap.tail().count, 0u);
    EXPECT_DOUBLE_EQ(snap.min, 0.0);
    EXPECT_DOUBLE_EQ(snap.max, 0.0);
}

TEST(LogHistogram, QuantileWithinDocumentedBoundOfNearestRank)
{
    // The documented contract: quantile(q) is within relative_error of
    // the actual sample at nearest-rank round(q * (count - 1)).
    const double a = 0.01;
    LogHistogram h(a);
    util::Rng rng(7);
    std::vector<double> values;
    for (int i = 0; i < 5000; ++i) {
        const double v = std::exp(rng.normal() * 2.0 - 3.0);
        values.push_back(v);
        h.add(v);
    }
    std::sort(values.begin(), values.end());
    const LogHistogramSnapshot snap = h.snapshot();
    ASSERT_EQ(snap.count, values.size());
    for (const double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        const auto rank = static_cast<std::size_t>(std::llround(
            q * static_cast<double>(values.size() - 1)));
        const double exact = values[rank];
        const double est = snap.quantile(q);
        EXPECT_NEAR(est, exact, a * exact + 1e-12)
            << "q=" << q << " rank=" << rank;
    }
}

TEST(LogHistogram, AgreesWithExactPercentileOracle)
{
    // Against the interpolating stats::percentile: the interpolated
    // value lies between adjacent order statistics, so the histogram
    // estimate is within relative_error of one of them plus the gap
    // between the two.
    const double a = 0.01;
    LogHistogram h(a);
    util::Rng rng(13);
    std::vector<double> values;
    for (int i = 0; i < 4000; ++i) {
        const double v = 0.5 + rng.uniform();  // Dense in [0.5, 1.5].
        values.push_back(v);
        h.add(v);
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const LogHistogramSnapshot snap = h.snapshot();
    for (const double pct : {50.0, 90.0, 95.0, 99.0}) {
        const double exact = percentile(values, pct);
        const double est = snap.quantile(pct / 100.0);
        const double pos =
            pct / 100.0 * static_cast<double>(sorted.size() - 1);
        const double gap =
            sorted[static_cast<std::size_t>(std::ceil(pos))] -
            sorted[static_cast<std::size_t>(std::floor(pos))];
        EXPECT_NEAR(est, exact, a * exact + gap + 1e-12)
            << "pct=" << pct;
    }
}

TEST(LogHistogram, ExtremeQuantilesAreExact)
{
    LogHistogram h;
    for (const double v : {0.37, 1.91, 0.0042, 12.5, 0.9})
        h.add(v);
    const LogHistogramSnapshot snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.0042);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 12.5);
    EXPECT_DOUBLE_EQ(snap.min, 0.0042);
    EXPECT_DOUBLE_EQ(snap.max, 12.5);
    EXPECT_NEAR(snap.sum, 0.37 + 1.91 + 0.0042 + 12.5 + 0.9, 1e-12);
}

TEST(LogHistogram, QuantileIsMonotoneInQ)
{
    LogHistogram h;
    util::Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        h.add(std::exp(rng.normal()));
    const LogHistogramSnapshot snap = h.snapshot();
    double prev = -1.0;
    for (double q = 0.0; q <= 1.0; q += 0.01) {
        const double est = snap.quantile(q);
        EXPECT_GE(est, prev) << "q=" << q;
        prev = est;
    }
}

TEST(LogHistogram, MergeMatchesCombinedAdds)
{
    LogHistogram a, b, all;
    util::Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        const double v = std::exp(rng.normal());
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    const LogHistogramSnapshot merged = a.snapshot();
    const LogHistogramSnapshot direct = all.snapshot();
    EXPECT_EQ(merged.count, direct.count);
    EXPECT_EQ(merged.bins, direct.bins);
    EXPECT_DOUBLE_EQ(merged.min, direct.min);
    EXPECT_DOUBLE_EQ(merged.max, direct.max);
    EXPECT_NEAR(merged.sum, direct.sum, 1e-9);
}

TEST(LogHistogram, OutOfRangeValuesClampIntoEdgeBuckets)
{
    LogHistogram h(0.01, 1e-3, 1e3);
    h.add(1e-9);   // Below min_value.
    h.add(1e9);    // Above max_value.
    h.add(-5.0);   // Nonpositive.
    h.add(1.0);
    const LogHistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 4u);
    // Exact extremes are tracked outside the buckets.
    EXPECT_DOUBLE_EQ(snap.min, -5.0);
    EXPECT_DOUBLE_EQ(snap.max, 1e9);
}

TEST(LogHistogram, ConcurrentAddsLoseNothing)
{
    LogHistogram h;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            util::Rng rng(static_cast<uint64_t>(t) + 1);
            for (int i = 0; i < kPerThread; ++i)
                h.add(std::exp(rng.normal()));
        });
    }
    for (auto& th : threads)
        th.join();
    const LogHistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count,
              static_cast<uint64_t>(kThreads) * kPerThread);
    uint64_t bin_total = 0;
    for (const uint64_t b : snap.bins)
        bin_total += b;
    EXPECT_EQ(bin_total, snap.count);
    EXPECT_GT(snap.min, 0.0);
    EXPECT_GE(snap.max, snap.min);
}

// ---------------------------------------------------------------------
// WindowedHistogram: time routing, merged tail, clamping.
// ---------------------------------------------------------------------

TEST(WindowedHistogram, RoutesObservationsByTime)
{
    WindowedHistogram w(1.0);
    w.add(0.5, 10.0);
    w.add(0.9, 20.0);
    w.add(1.5, 30.0);
    w.add(5.2, 40.0);
    const auto windows = w.windows();
    ASSERT_EQ(windows.size(), 3u);
    EXPECT_EQ(windows[0].index, 0u);
    EXPECT_EQ(windows[0].tail.count, 2u);
    EXPECT_DOUBLE_EQ(windows[0].start_s, 0.0);
    EXPECT_DOUBLE_EQ(windows[0].end_s, 1.0);
    EXPECT_EQ(windows[1].index, 1u);
    EXPECT_EQ(windows[1].tail.count, 1u);
    EXPECT_EQ(windows[2].index, 5u);
    EXPECT_DOUBLE_EQ(windows[2].start_s, 5.0);
    EXPECT_EQ(w.count(), 4u);
}

TEST(WindowedHistogram, TailMergesAllWindows)
{
    WindowedHistogram w(0.5);
    std::vector<double> values;
    util::Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const double v = std::exp(rng.normal() - 2.0);
        values.push_back(v);
        w.add(static_cast<double>(i) * 0.01, v);
    }
    const TailSummary tail = w.tail();
    EXPECT_EQ(tail.count, values.size());
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(std::llround(
        0.95 * static_cast<double>(values.size() - 1)));
    EXPECT_NEAR(tail.p95, values[rank],
                w.relativeError() * values[rank] + 1e-12);
    EXPECT_DOUBLE_EQ(tail.max, values.back());
}

TEST(WindowedHistogram, ClampsBeyondMaxWindows)
{
    WindowedHistogram w(1.0, /*max_windows=*/4);
    w.add(0.5, 1.0);
    w.add(100.0, 2.0);  // Far past the last window.
    EXPECT_EQ(w.clamped(), 1u);
    const auto windows = w.windows();
    ASSERT_EQ(windows.size(), 2u);
    EXPECT_EQ(windows[1].index, 3u);  // Landed in the last slot.
    EXPECT_EQ(w.count(), 2u);
}

TEST(WindowedHistogram, ConcurrentAddsAcrossWindows)
{
    WindowedHistogram w(0.1, 64);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&w, t] {
            util::Rng rng(static_cast<uint64_t>(t) + 99);
            for (int i = 0; i < kPerThread; ++i)
                w.add(rng.uniform() * 6.0, std::exp(rng.normal()));
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(w.count(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    uint64_t window_total = 0;
    for (const auto& win : w.windows())
        window_total += win.tail.count;
    EXPECT_EQ(window_total, w.count());
}

} // namespace
} // namespace recsim::stats
