/**
 * @file
 * Tracing substrate: RAII wall-clock spans on per-thread tracks plus
 * simulated-time spans on named tracks, exported together as one
 * Chrome trace_event JSON (loadable in Perfetto / chrome://tracing)
 * and as a plain-text summary that attributes wall time to named
 * spans — the per-operator breakdown methodology of the paper's
 * Sections V-VI applied to recsim itself.
 *
 * Cost model: tracing is off by default. Every instrumentation site
 * starts with a single relaxed atomic load (Tracer::enabled()), so the
 * disabled path adds no measurable overhead to the hot kernels; the
 * RECSIM_TRACE_SPAN macro additionally compiles to nothing when
 * RECSIM_OBS_DISABLED is defined, for benchmark builds that want the
 * instrumentation gone entirely.
 *
 * Thread model: each thread that opens a span gets its own track (its
 * own tid in the exported trace), so Hogwild/EASGD/ShadowSync workers
 * appear as parallel tracks. Simulated-time spans (sim-clock
 * nanoseconds from the DES) go on explicitly named tracks under a
 * separate process id so wall time and simulated time never share an
 * axis.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace recsim {
namespace obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
} // namespace detail

/** One completed span on some track, timestamps in nanoseconds. */
struct SpanRecord
{
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    /** Nesting depth on its track at begin time (0 = top level). */
    int depth = 0;
    /** Begin order within the track. */
    uint64_t seq = 0;

    double seconds() const
    {
        return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
};

/** All completed spans of one track (one thread or one sim node). */
struct TrackRecord
{
    std::string name;
    /** True for simulated-time tracks (sim-clock timestamps). */
    bool simulated = false;
    std::vector<SpanRecord> spans;
};

/**
 * The process-wide tracer. Wall spans are recorded via beginSpan /
 * endSpan (usually through the TraceSpan RAII helper) on the calling
 * thread's track; simulated spans are recorded with explicit
 * timestamps via addSimSpan.
 */
class Tracer
{
  public:
    static Tracer& global();

    /** Fast path for instrumentation sites: one relaxed load. */
    static bool enabled()
    {
        return detail::g_trace_enabled.load(std::memory_order_relaxed);
    }

    /** Turn recording on/off. Spans opened while off are not recorded. */
    void setEnabled(bool on);

    /**
     * Drop every recorded span and sim track and restart the wall
     * epoch. Thread tracks stay registered (live threads keep writing
     * to the same track after a reset).
     */
    void reset();

    /** Open a span on the calling thread's track. */
    void beginSpan(std::string name);

    /** Close the innermost open span on the calling thread's track. */
    void endSpan();

    /**
     * Record a completed simulated-time span on the named track.
     * Timestamps are sim-clock nanoseconds (des::Tick values).
     */
    void addSimSpan(const std::string& track, std::string name,
                    uint64_t start_ns, uint64_t end_ns);

    /** Nanoseconds since the wall epoch (construction or reset()). */
    uint64_t nowNs() const;

    /** Copy of every track's completed spans (wall tracks first). */
    std::vector<TrackRecord> snapshot() const;

    /** Total completed spans across all tracks. */
    std::size_t numSpans() const;

    /** Currently open (unbalanced) spans across all thread tracks. */
    std::size_t numOpenSpans() const;

    /** The whole trace as Chrome trace_event JSON. */
    std::string chromeTraceJson() const;

    /** Write chromeTraceJson() to @p path. False on I/O failure. */
    bool writeChromeTrace(const std::string& path) const;

    /**
     * Plain-text report: per-name totals (count, total time, share)
     * and, per wall track, the fraction of the track's wall interval
     * covered by named top-level spans.
     */
    std::string summary() const;

  private:
    Tracer();
    struct Impl;
    Impl* impl_;
};

/**
 * RAII wall-clock span. Near-zero cost when tracing is disabled; the
 * begin/end pairing survives the enabled flag flipping mid-span.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char* name)
    {
        if (Tracer::enabled()) {
            active_ = true;
            Tracer::global().beginSpan(name);
        }
    }

    explicit TraceSpan(std::string name)
    {
        if (Tracer::enabled()) {
            active_ = true;
            Tracer::global().beginSpan(std::move(name));
        }
    }

    ~TraceSpan()
    {
        if (active_)
            Tracer::global().endSpan();
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

  private:
    bool active_ = false;
};

/**
 * RAII timer that records its lifetime in seconds into
 * MetricsRegistry::global() under @p metric (always, independent of
 * the tracing flag) and additionally opens a trace span of the same
 * name when tracing is enabled.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(std::string metric);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

  private:
    std::string metric_;
    uint64_t start_ns_;
    bool span_active_ = false;
};

#define RECSIM_OBS_CAT2(a, b) a##b
#define RECSIM_OBS_CAT(a, b) RECSIM_OBS_CAT2(a, b)

#ifndef RECSIM_OBS_DISABLED
/** Open a wall-clock trace span for the rest of the enclosing scope. */
#define RECSIM_TRACE_SPAN(name)                                            \
    ::recsim::obs::TraceSpan RECSIM_OBS_CAT(recsim_trace_span_,            \
                                            __LINE__)(name)
#else
#define RECSIM_TRACE_SPAN(name) ((void)0)
#endif

} // namespace obs
} // namespace recsim
