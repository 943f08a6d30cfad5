#include "obs/metrics.h"

#include <functional>
#include <sstream>
#include <vector>

#include "util/string_utils.h"

namespace recsim {
namespace obs {

MetricsRegistry&
MetricsRegistry::global()
{
    // Leaky singleton, same rationale as FlightRecorder::global().
    static MetricsRegistry* registry = new MetricsRegistry();
    return *registry;
}

MetricsRegistry::Stripe&
MetricsRegistry::stripeFor(const std::string& name) const
{
    return stripes_[std::hash<std::string>{}(name) % kStripes];
}

void
MetricsRegistry::incr(const std::string& name, uint64_t delta)
{
    Stripe& stripe = stripeFor(name);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.counters[name] += delta;
}

void
MetricsRegistry::set(const std::string& name, double value)
{
    Stripe& stripe = stripeFor(name);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.gauges[name] = value;
}

void
MetricsRegistry::observe(const std::string& name, double value)
{
    Stripe& stripe = stripeFor(name);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.timings[name].add(value);
}

uint64_t
MetricsRegistry::counter(const std::string& name) const
{
    Stripe& stripe = stripeFor(name);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    const auto it = stripe.counters.find(name);
    return it == stripe.counters.end() ? 0 : it->second;
}

double
MetricsRegistry::gauge(const std::string& name) const
{
    Stripe& stripe = stripeFor(name);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    const auto it = stripe.gauges.find(name);
    return it == stripe.gauges.end() ? 0.0 : it->second;
}

stats::RunningStat
MetricsRegistry::timing(const std::string& name) const
{
    Stripe& stripe = stripeFor(name);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    const auto it = stripe.timings.find(name);
    return it == stripe.timings.end() ? stats::RunningStat()
                                      : it->second;
}

std::size_t
MetricsRegistry::size() const
{
    std::size_t total = 0;
    for (const Stripe& stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        total += stripe.counters.size() + stripe.gauges.size() +
            stripe.timings.size();
    }
    return total;
}

std::map<std::string, uint64_t>
MetricsRegistry::counters() const
{
    std::map<std::string, uint64_t> merged;
    for (const Stripe& stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        merged.insert(stripe.counters.begin(), stripe.counters.end());
    }
    return merged;
}

std::map<std::string, double>
MetricsRegistry::gauges() const
{
    std::map<std::string, double> merged;
    for (const Stripe& stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        merged.insert(stripe.gauges.begin(), stripe.gauges.end());
    }
    return merged;
}

std::map<std::string, stats::RunningStat>
MetricsRegistry::timings() const
{
    std::map<std::string, stats::RunningStat> merged;
    for (const Stripe& stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        merged.insert(stripe.timings.begin(), stripe.timings.end());
    }
    return merged;
}

std::string
MetricsRegistry::report() const
{
    // Merge-then-render keeps the output byte-identical to the old
    // single-map implementation: std::map iteration is sorted by name.
    std::ostringstream os;
    os << "=== metrics ===\n";
    for (const auto& [name, value] : counters())
        os << "  " << util::padRight(name, 36) << " counter "
           << value << "\n";
    for (const auto& [name, value] : gauges())
        os << "  " << util::padRight(name, 36) << " gauge   "
           << util::fixed(value, 6) << "\n";
    for (const auto& [name, stat] : timings()) {
        os << "  " << util::padRight(name, 36) << " timing  n="
           << stat.count() << " mean=" << util::fixed(stat.mean(), 6)
           << " min=" << util::fixed(stat.min(), 6)
           << " max=" << util::fixed(stat.max(), 6)
           << " total=" << util::fixed(stat.sum(), 6) << "\n";
    }
    return os.str();
}

void
MetricsRegistry::reset()
{
    for (Stripe& stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        stripe.counters.clear();
        stripe.gauges.clear();
        stripe.timings.clear();
    }
}

} // namespace obs
} // namespace recsim
