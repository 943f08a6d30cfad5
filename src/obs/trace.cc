#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/export.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace recsim {
namespace obs {

namespace {

/** @p ns in microseconds, to the nanosecond. */
std::string
microseconds(uint64_t ns)
{
    return util::fixed(static_cast<double>(ns) / 1000.0, 3);
}

} // namespace

std::string
chromeTraceJson(const FlightRecorder& recorder,
                const std::vector<Sample>& samples)
{
    // Wall tracks under pid 1, simulated tracks under pid 2, so
    // Perfetto shows two process groups with incomparable time bases
    // kept visually separate. Timestamps are microseconds, as the
    // trace_event format expects, printed to the nanosecond.
    const std::vector<std::string> names = recorder.channels();
    const std::vector<Track> tracks = recorder.tracks();
    std::vector<char> used(tracks.size(), 0);
    for (const Sample& sample : samples) {
        if (sample.span)
            used[sample.track] = 1;
    }

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
    for (std::size_t t = 0; t < tracks.size(); ++t) {
        if (!used[t])
            continue;
        emit(util::format(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},"
            "\"tid\":{},\"args\":{\"name\":\"{}\"}}",
            tracks[t].simulated ? 2 : 1, t, jsonEscape(tracks[t].name)));
    }
    for (const Sample& sample : samples) {
        if (!sample.span)
            continue;
        std::ostringstream ev;
        ev << "{\"name\":\"" << jsonEscape(names[sample.channel])
           << "\",\"ph\":\"X\",\"pid\":"
           << (tracks[sample.track].simulated ? 2 : 1)
           << ",\"tid\":" << sample.track << ",\"ts\":"
           << microseconds(sample.t_ns) << ",\"dur\":"
           << microseconds(sample.dur_ns) << "}";
        emit(ev.str());
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"
       << recorder.dropped() << "}}\n";
    return os.str();
}

bool
writeChromeTrace(const std::string& path, const FlightRecorder& recorder,
                 const std::vector<Sample>& samples)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << chromeTraceJson(recorder, samples);
    return static_cast<bool>(out);
}

std::string
summary(const FlightRecorder& recorder, const std::vector<Sample>& samples)
{
    const std::vector<std::string> names = recorder.channels();
    const std::vector<Track> tracks = recorder.tracks();

    struct Agg
    {
        uint64_t count = 0;
        double seconds = 0.0;
    };
    std::map<std::string, Agg> wall_by_name;
    std::map<std::string, Agg> sim_by_name;
    /** Each wall track's spans, in snapshot (start) order. */
    std::map<uint32_t, std::vector<const Sample*>> wall_tracks;
    for (const Sample& sample : samples) {
        if (!sample.span)
            continue;
        const bool simulated = tracks[sample.track].simulated;
        Agg& agg = (simulated ? sim_by_name
                              : wall_by_name)[names[sample.channel]];
        ++agg.count;
        agg.seconds += sample.value;
        if (!simulated)
            wall_tracks[sample.track].push_back(&sample);
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
    // covered by top-level spans. This is the honesty check the bench
    // harnesses print — unattributed time means missing spans. Spans
    // on one thread nest, and start order puts an enclosing span
    // first, so a span is top-level when it starts after the end of
    // the last top-level one.
    for (const auto& [track, spans] : wall_tracks) {
        uint64_t lo = ~0ULL, hi = 0, top_end = 0;
        double covered = 0.0;
        for (const Sample* span : spans) {
            const uint64_t end = span->t_ns + span->dur_ns;
            lo = std::min(lo, span->t_ns);
            hi = std::max(hi, end);
            if (span->t_ns >= top_end) {
                covered += span->value;
                top_end = end;
            }
        }
        const double wall = static_cast<double>(hi - lo) * 1e-9;
        os << "track " << tracks[track].name << ": "
           << util::fixed(wall * 1e3, 3) << " ms wall, "
           << util::fixed(wall > 0.0 ? 100.0 * covered / wall : 100.0,
                          1)
           << "% attributed to named spans\n";
    }
    os << "recorder: " << samples.size() << " samples, "
       << recorder.dropped() << " dropped\n";
    return os.str();
}

} // namespace obs
} // namespace recsim
