#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/pool_metrics.h"

namespace recsim {
namespace obs {

namespace {

/** Render a double the way both exporters want: shortest round-trip
 *  representation with enough digits. */
std::string
num(double v)
{
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
}

} // namespace

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------

std::string
prometheusName(const std::string& name)
{
    std::string out = "recsim_";
    for (const char c : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
            c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

std::string
prometheusText(const MetricsRegistry& registry)
{
    std::ostringstream os;
    for (const auto& [name, value] : registry.counters()) {
        const std::string pname = prometheusName(name);
        os << "# TYPE " << pname << " counter\n"
           << pname << " " << value << "\n";
    }
    for (const auto& [name, value] : registry.gauges()) {
        const std::string pname = prometheusName(name);
        os << "# TYPE " << pname << " gauge\n"
           << pname << " " << num(value) << "\n";
    }
    for (const auto& [name, stat] : registry.timings()) {
        const std::string pname = prometheusName(name);
        os << "# TYPE " << pname << " summary\n"
           << pname << "_count " << stat.count() << "\n"
           << pname << "_sum " << num(stat.sum()) << "\n"
           << "# TYPE " << pname << "_min gauge\n"
           << pname << "_min " << num(stat.min()) << "\n"
           << "# TYPE " << pname << "_max gauge\n"
           << pname << "_max " << num(stat.max()) << "\n";
    }
    return os.str();
}

std::string
prometheusHistogram(const std::string& name,
                    const stats::LogHistogramSnapshot& snap)
{
    const std::string pname = prometheusName(name);
    std::ostringstream os;
    os << "# TYPE " << pname << " histogram\n";
    // Only the occupied range of the log buckets: ~1.4k mostly-empty
    // bins would drown a scrape. Buckets are cumulative per the
    // exposition format.
    std::size_t lo = snap.bins.size(), hi = 0;
    for (std::size_t i = 0; i < snap.bins.size(); ++i) {
        if (snap.bins[i]) {
            lo = std::min(lo, i);
            hi = std::max(hi, i);
        }
    }
    uint64_t cumulative = 0;
    if (lo <= hi) {
        for (std::size_t i = lo; i <= hi; ++i) {
            cumulative += snap.bins[i];
            os << pname << "_bucket{le=\"" << num(snap.binUpperEdge(i))
               << "\"} " << cumulative << "\n";
        }
    }
    os << pname << "_bucket{le=\"+Inf\"} " << snap.count << "\n"
       << pname << "_sum " << num(snap.sum) << "\n"
       << pname << "_count " << snap.count << "\n";
    return os.str();
}

// ---------------------------------------------------------------------
// JSONL snapshots
// ---------------------------------------------------------------------

std::string
telemetryJsonLine(uint64_t seq, double t_s,
                  const MetricsRegistry& registry,
                  const FlightRecorder& recorder,
                  const stats::WindowedHistogram* latency)
{
    std::ostringstream os;
    os << "{\"seq\": " << seq << ", \"t_s\": " << num(t_s);

    const PoolSnapshot pool = snapshotThreadPool();
    os << ", \"pool\": {\"threads\": " << pool.threads
       << ", \"jobs\": " << pool.jobs << ", \"tasks\": " << pool.tasks
       << ", \"idle_ns\": " << pool.idle_ns << "}";

    os << ", \"recorder\": {\"size\": " << recorder.size()
       << ", \"capacity\": " << recorder.capacity()
       << ", \"dropped\": " << recorder.dropped()
       << ", \"total\": " << recorder.totalRecorded() << "}";

    os << ", \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : registry.counters()) {
        os << (first ? "" : ", ") << "\"" << jsonEscape(name)
           << "\": " << value;
        first = false;
    }
    os << "}, \"gauges\": {";
    first = true;
    for (const auto& [name, value] : registry.gauges()) {
        os << (first ? "" : ", ") << "\"" << jsonEscape(name)
           << "\": " << num(value);
        first = false;
    }
    os << "}, \"timings\": {";
    first = true;
    for (const auto& [name, stat] : registry.timings()) {
        os << (first ? "" : ", ") << "\"" << jsonEscape(name)
           << "\": {\"count\": " << stat.count() << ", \"mean\": "
           << num(stat.mean()) << ", \"min\": " << num(stat.min())
           << ", \"max\": " << num(stat.max()) << "}";
        first = false;
    }
    os << "}";

    if (latency != nullptr) {
        const stats::TailSummary tail = latency->tail();
        os << ", \"latency\": {\"count\": " << tail.count
           << ", \"p50_s\": " << num(tail.p50)
           << ", \"p95_s\": " << num(tail.p95)
           << ", \"p99_s\": " << num(tail.p99)
           << ", \"max_s\": " << num(tail.max) << "}";
    }
    os << "}";
    return os.str();
}

// ---------------------------------------------------------------------
// PeriodicSampler
// ---------------------------------------------------------------------

PeriodicSampler::PeriodicSampler(Config config)
    : config_(std::move(config)), start_ns_(steadyNowNs())
{
}

PeriodicSampler::~PeriodicSampler()
{
    stop();
    if (!config_.jsonl_path.empty())
        writeJsonl(config_.jsonl_path);
}

void
PeriodicSampler::sampleOnce()
{
    const double t_s =
        static_cast<double>(steadyNowNs() - start_ns_) * 1e-9;
    std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(telemetryJsonLine(
        seq_++, t_s, MetricsRegistry::global(),
        FlightRecorder::global(), config_.latency));
}

std::vector<std::string>
PeriodicSampler::lines() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
}

bool
PeriodicSampler::writeJsonl(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (const std::string& line : lines())
        out << line << "\n";
    return static_cast<bool>(out);
}

void
PeriodicSampler::start()
{
    std::lock_guard<std::mutex> lock(wake_mutex_);
    if (running_)
        return;
    running_ = true;
    stop_requested_ = false;
    thread_ = std::thread([this] { samplerLoop(); });
}

void
PeriodicSampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        if (!running_)
            return;
        stop_requested_ = true;
    }
    wake_cv_.notify_all();
    thread_.join();
    {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        running_ = false;
    }
    // The final sample catches whatever happened after the last tick.
    sampleOnce();
}

void
PeriodicSampler::samplerLoop()
{
    const auto interval = std::chrono::duration_cast<
        std::chrono::nanoseconds>(
        std::chrono::duration<double>(config_.interval_s));
    std::unique_lock<std::mutex> lock(wake_mutex_);
    while (!stop_requested_) {
        if (wake_cv_.wait_for(lock, interval,
                              [this] { return stop_requested_; }))
            break;
        lock.unlock();
        sampleOnce();
        lock.lock();
    }
}

} // namespace obs
} // namespace recsim
