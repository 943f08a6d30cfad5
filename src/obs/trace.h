/**
 * @file
 * Spans and the two views over the flight recorder's samples
 * (obs/flight_recorder.h): a Chrome trace_event JSON (loadable in
 * Perfetto / chrome://tracing) and a plain-text summary that
 * attributes wall time to named spans — the per-operator breakdown
 * methodology of the paper's Sections V-VI applied to recsim itself.
 *
 * A TraceSpan reads the steady clock when it opens and records one
 * span sample when it closes, on the calling thread's track, so
 * Hogwild/EASGD/ShadowSync workers and the executor's pool workers
 * appear as parallel tracks. Simulated-time spans (sim-clock
 * nanoseconds from the DES) sit on named simulated tracks, exported
 * under a separate process id so wall time and simulated time never
 * share an axis.
 *
 * Cost model: FlightRecorder::setEnabled() is the one switch, and it
 * is off by default. A span opened while it is off costs one relaxed
 * atomic load. A span never takes the channel-intern mutex once its
 * site has run: a RECSIM_TRACE_SPAN site caches its literal name's
 * channel, and a name chosen at run time is interned where its owner
 * is built (the executor's node channels, the async trainers'
 * iteration span). RECSIM_TRACE_SPAN compiles to nothing when
 * RECSIM_OBS_DISABLED is defined, for benchmark builds that want the
 * instrumentation gone entirely.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"

namespace recsim {
namespace obs {

/**
 * A span site with a literal name. Its channel is interned by the
 * first span that opens while recording, then read from the site.
 * RECSIM_TRACE_SPAN declares one per site as a constinit static, so
 * a site costs no initialization guard.
 */
class SpanSite
{
  public:
    constexpr explicit SpanSite(const char* name) : name_(name) {}

    uint32_t channel()
    {
        uint32_t id = channel_.load(std::memory_order_relaxed);
        if (id == kUnset) {
            id = FlightRecorder::global().internChannel(name_);
            channel_.store(id, std::memory_order_relaxed);
        }
        return id;
    }

  private:
    static constexpr uint32_t kUnset = ~0u;
    const char* name_;
    std::atomic<uint32_t> channel_{kUnset};
};

/**
 * RAII wall-clock span: opens only while the recorder is enabled, and
 * then records one span sample on the calling thread's track when it
 * closes, tagged with @p step and @p rows.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(SpanSite& site, uint64_t step = 0,
                       uint32_t rows = 0)
    {
        if (FlightRecorder::enabled())
            open(site.channel(), step, rows);
    }

    /** @p channel is interned (FlightRecorder::internChannel). */
    explicit TraceSpan(uint32_t channel, uint64_t step = 0,
                       uint32_t rows = 0)
    {
        if (FlightRecorder::enabled())
            open(channel, step, rows);
    }

    ~TraceSpan()
    {
        if (recorder_ != nullptr)
            recorder_->recordSpan(channel_, start_ns_, step_, rows_);
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

  private:
    void open(uint32_t channel, uint64_t step, uint32_t rows)
    {
        recorder_ = &FlightRecorder::global();
        channel_ = channel;
        step_ = step;
        rows_ = rows;
        start_ns_ = steadyNowNs();
    }

    FlightRecorder* recorder_ = nullptr;
    uint64_t start_ns_ = 0;
    uint64_t step_ = 0;
    uint32_t channel_ = 0;
    uint32_t rows_ = 0;
};

/**
 * The span samples of @p samples as Chrome trace_event JSON: wall
 * tracks under pid 1, simulated tracks under pid 2, timestamps in
 * microseconds, and @p recorder's dropped() count under
 * otherData.dropped.
 */
std::string chromeTraceJson(const FlightRecorder& recorder,
                            const std::vector<Sample>& samples);

/** Write chromeTraceJson() to @p path. False on I/O failure. */
bool writeChromeTrace(const std::string& path,
                      const FlightRecorder& recorder,
                      const std::vector<Sample>& samples);

/**
 * Plain-text report of the span samples of @p samples: per-name
 * totals (count, total time, share), wall and simulated apart; per
 * wall track, the fraction of the track's interval covered by
 * top-level spans; and @p recorder's dropped() count.
 */
std::string summary(const FlightRecorder& recorder,
                    const std::vector<Sample>& samples);

#define RECSIM_OBS_CAT2(a, b) a##b
#define RECSIM_OBS_CAT(a, b) RECSIM_OBS_CAT2(a, b)

#ifndef RECSIM_OBS_DISABLED
/** Open a wall-clock span named by the literal @p name for the rest of
 *  the enclosing scope. */
#define RECSIM_TRACE_SPAN(name)                                            \
    static constinit ::recsim::obs::SpanSite RECSIM_OBS_CAT(               \
        recsim_span_site_, __LINE__){name};                                \
    ::recsim::obs::TraceSpan RECSIM_OBS_CAT(recsim_trace_span_, __LINE__)( \
        RECSIM_OBS_CAT(recsim_span_site_, __LINE__))
#else
#define RECSIM_TRACE_SPAN(name) ((void)0)
#endif

} // namespace obs
} // namespace recsim
