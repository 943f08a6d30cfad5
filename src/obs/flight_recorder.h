/**
 * @file
 * Flight recorder: the one event store of the observability layer, a
 * fixed-capacity, per-thread-striped ring buffer of samples. Where the
 * MetricsRegistry aggregates (count/mean/min/max forever), the
 * recorder answers "what happened around step 4812" with bounded
 * memory: the last `capacity()` samples are always available, older
 * ones are overwritten (and counted as dropped). The Chrome trace and
 * the text summary (obs/trace.h) and the DriftMonitor (obs/drift.h)
 * all read its snapshot().
 *
 * A sample is one of two kinds:
 *  - a value ("train.loss", "serve.queue_depth", "*.cache.hit_rate"),
 *    which has zero duration;
 *  - a span (an obs::TraceSpan, one GraphExecutor node visit, a DES
 *    busy interval), which has a start and a duration, and whose value
 *    is that duration in seconds.
 * Every sample also carries a step/batch number, the batch row count,
 * an interned channel id (the series name: a span name such as
 * "train.iteration", or a StepGraph node id) and a track: the
 * recording thread's wall-clock track, or a named simulated track
 * whose timestamps are sim-clock nanoseconds (the DES). Channels and
 * simulated tracks are interned once (mutex + map) and recorded by
 * integer id, so the record path never hashes strings.
 *
 * Cost model: recording is off by default, and setEnabled() is the
 * only switch, for spans and values alike. Every instrumentation site
 * starts with one relaxed atomic load (FlightRecorder::enabled(), or
 * recorderEnabled(), which folds to `false` at compile time under
 * RECSIM_OBS_DISABLED). The enabled path takes one uncontended
 * per-stripe mutex: each thread writes the stripe of its track
 * (round-robin over a fixed stripe array), so trainer, executor
 * workers and serving drivers never contend on one lock, and
 * snapshot() can read consistent samples without stopping writers.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace recsim {
namespace obs {

namespace detail {
extern std::atomic<bool> g_recorder_enabled;
} // namespace detail

/** Nanoseconds on the steady clock, the recorder's time base. */
uint64_t steadyNowNs();

/** One recorded observation. POD, 48 bytes. */
struct Sample
{
    /** Start: nanoseconds since the recorder epoch, or sim-clock
     *  nanoseconds on a simulated track. */
    uint64_t t_ns = 0;
    uint64_t dur_ns = 0;   ///< Span length; 0 for a value.
    uint64_t step = 0;     ///< Step / batch sequence number.
    double value = 0.0;    ///< The value; a span's duration in seconds.
    uint32_t channel = 0;  ///< Interned channel id.
    uint32_t rows = 0;     ///< Batch rows (0 when not applicable).
    uint32_t track = 0;    ///< Track id, an index into tracks().
    bool span = false;     ///< A span rather than a value.
};

/** Where samples land: one per recording thread, or a simulated one. */
struct Track
{
    std::string name;
    /** Sim-clock timestamps (a DES resource or worker). */
    bool simulated = false;
};

/**
 * The process-wide flight recorder. Disabled by default; when
 * disabled, record() returns after one relaxed load and instrumented
 * code skips its measurement entirely (see recorderEnabled()).
 */
class FlightRecorder
{
  public:
    static FlightRecorder& global();

    /** Fast path for instrumentation sites: one relaxed load. */
    static bool enabled()
    {
        return detail::g_recorder_enabled.load(
            std::memory_order_relaxed);
    }

    /** Turn recording on/off. Samples offered and spans opened while
     *  off are dropped before any work happens. */
    void setEnabled(bool on);

    /**
     * Resize total capacity (split evenly over the stripes, so the
     * retention per thread is capacity / numStripes). Drops all held
     * samples and restarts the epoch; interned channels and tracks
     * survive.
     */
    void configure(std::size_t capacity);

    std::size_t capacity() const;
    std::size_t numStripes() const;

    /**
     * Id of channel @p name, creating it on first use. Ids are dense,
     * stable for the process lifetime (reset() keeps them) and safe to
     * cache at instrumentation sites.
     */
    uint32_t internChannel(const std::string& name);

    /** Name of @p channel ("?" for an unknown id). */
    std::string channelName(uint32_t channel) const;

    /** All interned channel names, indexed by id. */
    std::vector<std::string> channels() const;

    /** Id of the simulated track @p name, creating it on first use;
     *  as stable as a channel id. */
    uint32_t internSimTrack(const std::string& name);

    /**
     * Every track, indexed by id. A thread's wall-clock track,
     * "thread-N", registers when the thread first records and keeps
     * its id for the thread's life.
     */
    std::vector<Track> tracks() const;

    /** Record one value (timestamped now) on the calling thread's
     *  track. No-op while disabled. Thread-safe. */
    void record(uint32_t channel, uint64_t step, double value,
                uint32_t rows = 0);

    /**
     * Record a span that opened at @p start_ns (a steadyNowNs()
     * reading) and closes now, on the calling thread's track. The
     * opener checked enabled(), so the span is recorded even if
     * recording stopped since; one that opened before the last
     * configure() or reset() is dropped. Thread-safe.
     */
    void recordSpan(uint32_t channel, uint64_t start_ns, uint64_t step,
                    uint32_t rows);

    /** Record a span of sim-clock nanoseconds [@p start_ns, @p end_ns]
     *  on simulated @p track. No-op while disabled. Thread-safe. */
    void recordSimSpan(uint32_t track, uint32_t channel,
                       uint64_t start_ns, uint64_t end_ns);

    /** Nanoseconds since the recorder epoch (construction, configure()
     *  or reset()). */
    uint64_t nowNs() const;

    /** Samples currently retained across all stripes. */
    std::size_t size() const;

    /** Samples ever recorded since configure() or reset(). */
    uint64_t totalRecorded() const;

    /** Samples overwritten by ring wraparound: totalRecorded - size. */
    uint64_t dropped() const;

    /**
     * Copy of the retained samples, merged across stripes and sorted
     * by start, the longer span first at a tie (so an enclosing span
     * precedes what it encloses), then step and channel. Thread-safe
     * against concurrent writers.
     */
    std::vector<Sample> snapshot() const;

    /** Drop all samples and restart the epoch. Channels, tracks and
     *  capacity survive (live sites keep their cached ids). */
    void reset();

  private:
    FlightRecorder();
    struct Impl;
    Impl* impl_;
};

/**
 * The guard instrumentation sites use: one relaxed atomic load, and a
 * compile-time `false` under RECSIM_OBS_DISABLED so the measurement
 * code folds away entirely in obs-free builds.
 */
#ifndef RECSIM_OBS_DISABLED
inline bool
recorderEnabled()
{
    return FlightRecorder::enabled();
}
#else
constexpr bool
recorderEnabled()
{
    return false;
}
#endif

} // namespace obs
} // namespace recsim
