#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace recsim {
namespace obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
} // namespace detail

namespace {

uint64_t
steadyNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** JSON string escaping for span/track names. */
std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
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

} // namespace

/**
 * One thread's track. The owning thread is the only writer of `stack`
 * and the only appender to `spans`, but `mutex` guards both: readers
 * (snapshot()/numOpenSpans()) and the graph executor's worker threads
 * may observe a track while its owner is mid-push, so every stack or
 * span access — including the owner's own begin/end — takes the lock.
 * The lock is uncontended in the common case (one owner, no readers),
 * and only taken while tracing is enabled.
 */
struct ThreadTrack
{
    std::string name;
    mutable std::mutex mutex;
    std::vector<SpanRecord> spans;

    struct Open
    {
        std::string name;
        uint64_t start_ns;
        uint64_t seq;
    };
    std::vector<Open> stack;
    uint64_t next_seq = 0;
};

struct Tracer::Impl
{
    mutable std::mutex mutex;  ///< Guards track registration + sim tracks.
    std::vector<std::unique_ptr<ThreadTrack>> threads;
    std::map<std::string, TrackRecord> sim;
    std::map<std::string, uint64_t> sim_seq;
    uint64_t epoch_ns = steadyNs();
};

namespace {
/** The calling thread's track in the global tracer (nullptr = none). */
thread_local ThreadTrack* t_track = nullptr;
} // namespace

Tracer::Tracer()
    : impl_(new Impl)
{
}

Tracer&
Tracer::global()
{
    // Leaky singleton: worker threads may record spans during static
    // destruction of other objects, so the tracer is never torn down.
    static Tracer* tracer = new Tracer();
    return *tracer;
}

void
Tracer::setEnabled(bool on)
{
    detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (auto& track : impl_->threads) {
        std::lock_guard<std::mutex> tlock(track->mutex);
        track->spans.clear();
        track->stack.clear();
        track->next_seq = 0;
    }
    impl_->sim.clear();
    impl_->sim_seq.clear();
    impl_->epoch_ns = steadyNs();
}

uint64_t
Tracer::nowNs() const
{
    return steadyNs() - impl_->epoch_ns;
}

void
Tracer::beginSpan(std::string name)
{
    if (t_track == nullptr) {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        auto track = std::make_unique<ThreadTrack>();
        track->name = "thread-" + std::to_string(impl_->threads.size());
        t_track = track.get();
        impl_->threads.push_back(std::move(track));
    }
    std::lock_guard<std::mutex> lock(t_track->mutex);
    t_track->stack.push_back(
        {std::move(name), nowNs(), t_track->next_seq++});
}

void
Tracer::endSpan()
{
    if (t_track == nullptr)
        return;
    std::lock_guard<std::mutex> lock(t_track->mutex);
    if (t_track->stack.empty())
        return;  // Unbalanced end; drop rather than crash.
    ThreadTrack::Open open = std::move(t_track->stack.back());
    t_track->stack.pop_back();
    SpanRecord record;
    record.name = std::move(open.name);
    record.start_ns = open.start_ns;
    record.end_ns = nowNs();
    record.depth = static_cast<int>(t_track->stack.size());
    record.seq = open.seq;
    t_track->spans.push_back(std::move(record));
}

void
Tracer::addSimSpan(const std::string& track, std::string name,
                   uint64_t start_ns, uint64_t end_ns)
{
    if (!enabled() || end_ns < start_ns)
        return;
    std::lock_guard<std::mutex> lock(impl_->mutex);
    TrackRecord& rec = impl_->sim[track];
    if (rec.name.empty()) {
        rec.name = track;
        rec.simulated = true;
    }
    SpanRecord span;
    span.name = std::move(name);
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.depth = 0;
    span.seq = impl_->sim_seq[track]++;
    rec.spans.push_back(std::move(span));
}

std::vector<TrackRecord>
Tracer::snapshot() const
{
    std::vector<TrackRecord> out;
    std::lock_guard<std::mutex> lock(impl_->mutex);
    out.reserve(impl_->threads.size() + impl_->sim.size());
    for (const auto& track : impl_->threads) {
        TrackRecord rec;
        rec.name = track->name;
        rec.simulated = false;
        {
            std::lock_guard<std::mutex> tlock(track->mutex);
            rec.spans = track->spans;
        }
        out.push_back(std::move(rec));
    }
    for (const auto& [name, rec] : impl_->sim)
        out.push_back(rec);
    return out;
}

std::size_t
Tracer::numSpans() const
{
    std::size_t n = 0;
    for (const auto& track : snapshot())
        n += track.spans.size();
    return n;
}

std::size_t
Tracer::numOpenSpans() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    std::size_t n = 0;
    for (const auto& track : impl_->threads) {
        std::lock_guard<std::mutex> tlock(track->mutex);
        n += track->stack.size();
    }
    return n;
}

std::string
Tracer::chromeTraceJson() const
{
    // Wall tracks under pid 1, simulated tracks under pid 2, so
    // Perfetto shows two process groups with incomparable time bases
    // kept visually separate. Timestamps are microseconds (doubles),
    // as the trace_event format expects.
    const auto tracks = snapshot();
    std::ostringstream os;
    os << "{\"traceEvents\":[\n";
    bool first = true;
    auto emit = [&os, &first](const std::string& line) {
        if (!first)
            os << ",\n";
        first = false;
        os << line;
    };
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"recsim wall clock\"}}");
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
         "\"args\":{\"name\":\"recsim simulated time\"}}");

    int wall_tid = 0;
    int sim_tid = 0;
    for (const auto& track : tracks) {
        const int pid = track.simulated ? 2 : 1;
        const int tid = track.simulated ? sim_tid++ : wall_tid++;
        emit(util::format(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},"
            "\"tid\":{},\"args\":{\"name\":\"{}\"}}",
            pid, tid, jsonEscape(track.name)));
        for (const auto& span : track.spans) {
            std::ostringstream ev;
            ev << "{\"name\":\"" << jsonEscape(span.name)
               << "\",\"ph\":\"X\",\"pid\":" << pid
               << ",\"tid\":" << tid << ",\"ts\":"
               << static_cast<double>(span.start_ns) / 1000.0
               << ",\"dur\":"
               << static_cast<double>(span.end_ns - span.start_ns) /
                   1000.0
               << "}";
            emit(ev.str());
        }
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return os.str();
}

bool
Tracer::writeChromeTrace(const std::string& path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << chromeTraceJson();
    return static_cast<bool>(out);
}

std::string
Tracer::summary() const
{
    const auto tracks = snapshot();

    struct Agg
    {
        uint64_t count = 0;
        double seconds = 0.0;
    };
    std::map<std::string, Agg> wall_by_name;
    std::map<std::string, Agg> sim_by_name;
    for (const auto& track : tracks) {
        auto& by_name = track.simulated ? sim_by_name : wall_by_name;
        for (const auto& span : track.spans) {
            Agg& agg = by_name[span.name];
            ++agg.count;
            agg.seconds += span.seconds();
        }
    }

    std::ostringstream os;
    os << "=== trace summary ===\n";
    auto section = [&os](const char* title,
                         const std::map<std::string, Agg>& by_name,
                         const char* unit) {
        if (by_name.empty())
            return;
        double total = 0.0;
        for (const auto& [name, agg] : by_name)
            total += agg.seconds;
        std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                      by_name.end());
        std::sort(rows.begin(), rows.end(),
                  [](const auto& a, const auto& b) {
                      return a.second.seconds > b.second.seconds;
                  });
        os << title << "\n";
        for (const auto& [name, agg] : rows) {
            os << "  " << util::padRight(name, 32)
               << util::padLeft(std::to_string(agg.count), 9) << "  "
               << util::padLeft(util::fixed(agg.seconds * 1e3, 3), 12)
               << " " << unit << "  "
               << util::padLeft(
                      util::fixed(total > 0.0
                                      ? 100.0 * agg.seconds / total
                                      : 0.0, 1), 6)
               << "%\n";
        }
    };
    section("wall spans (name, count, total, share of span time):",
            wall_by_name, "ms");
    section("simulated spans (name, count, total, share of span time):",
            sim_by_name, "sim-ms");

    // Attribution: how much of each wall track's busy interval is
    // covered by named top-level spans. This is the honesty check the
    // bench harnesses print — unattributed time means missing spans.
    for (const auto& track : tracks) {
        if (track.simulated || track.spans.empty())
            continue;
        uint64_t lo = ~0ULL, hi = 0;
        double covered = 0.0;
        for (const auto& span : track.spans) {
            lo = std::min(lo, span.start_ns);
            hi = std::max(hi, span.end_ns);
            if (span.depth == 0)
                covered += span.seconds();
        }
        const double wall = static_cast<double>(hi - lo) * 1e-9;
        os << "track " << track.name << ": "
           << util::fixed(wall * 1e3, 3) << " ms wall, "
           << util::fixed(wall > 0.0 ? 100.0 * covered / wall : 100.0,
                          1)
           << "% attributed to named spans\n";
    }
    return os.str();
}

ScopedTimer::ScopedTimer(std::string metric)
    : metric_(std::move(metric)), start_ns_(Tracer::global().nowNs())
{
    if (Tracer::enabled()) {
        span_active_ = true;
        Tracer::global().beginSpan(metric_);
    }
}

ScopedTimer::~ScopedTimer()
{
    if (span_active_)
        Tracer::global().endSpan();
    const uint64_t elapsed = Tracer::global().nowNs() - start_ns_;
    MetricsRegistry::global().observe(
        metric_, static_cast<double>(elapsed) * 1e-9);
}

} // namespace obs
} // namespace recsim
