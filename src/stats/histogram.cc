#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_utils.h"

namespace recsim {
namespace stats {

Histogram::Histogram(double lo, double hi, std::size_t bins, BinScale scale)
    : lo_(lo), hi_(hi), scale_(scale), counts_(bins, 0.0)
{
    RECSIM_ASSERT(bins >= 1, "histogram needs at least one bin");
    RECSIM_ASSERT(hi > lo, "histogram range is empty");
    if (scale_ == BinScale::Log10)
        RECSIM_ASSERT(lo > 0.0, "log histogram needs positive range");
    slo_ = toScale(lo_);
    shi_ = toScale(hi_);
}

double
Histogram::toScale(double x) const
{
    return scale_ == BinScale::Log10 ? std::log10(x) : x;
}

std::size_t
Histogram::binIndex(double x) const
{
    const double s = toScale(x);
    const double frac = (s - slo_) / (shi_ - slo_);
    const auto idx = static_cast<long>(frac * static_cast<double>(
        counts_.size()));
    return static_cast<std::size_t>(std::clamp<long>(
        idx, 0, static_cast<long>(counts_.size()) - 1));
}

void
Histogram::add(double x)
{
    add(x, 1.0);
}

void
Histogram::add(double x, double weight)
{
    if (x < lo_)
        underflow_ += weight;
    else if (x >= hi_)
        overflow_ += weight;
    counts_[binIndex(x)] += weight;
    total_ += weight;
}

double
Histogram::binLo(std::size_t i) const
{
    const double s = slo_ + (shi_ - slo_) * static_cast<double>(i) /
        static_cast<double>(counts_.size());
    return scale_ == BinScale::Log10 ? std::pow(10.0, s) : s;
}

double
Histogram::binHi(std::size_t i) const
{
    return binLo(i + 1);
}

double
Histogram::binFraction(std::size_t i) const
{
    return total_ > 0.0 ? counts_[i] / total_ : 0.0;
}

double
Histogram::quantile(double q) const
{
    RECSIM_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    if (total_ <= 0.0)
        return lo_;
    const double target = q * total_;
    double cum = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (cum + counts_[i] >= target) {
            const double within = counts_[i] > 0.0
                ? (target - cum) / counts_[i] : 0.0;
            return binLo(i) + within * (binHi(i) - binLo(i));
        }
        cum += counts_[i];
    }
    return hi_;
}

std::string
Histogram::render(std::size_t max_bar_width) const
{
    double peak = 0.0;
    for (double c : counts_)
        peak = std::max(peak, c);
    std::string out;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const auto bar_len = peak > 0.0
            ? static_cast<std::size_t>(counts_[i] / peak *
                  static_cast<double>(max_bar_width))
            : 0;
        out += util::padLeft(util::countToString(binLo(i)), 8);
        out += "-";
        out += util::padRight(util::countToString(binHi(i)), 8);
        out += " |";
        out += std::string(bar_len, '#');
        out += " ";
        out += util::fixed(binFraction(i) * 100.0, 1);
        out += "%\n";
    }
    return out;
}

} // namespace stats
} // namespace recsim
