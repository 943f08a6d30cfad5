/**
 * @file
 * Telemetry exporters: the back of the observability pipeline
 * (recorder/registry/histograms -> something a fleet can scrape).
 *
 *  - Prometheus text exposition (version 0.0.4): counters, gauges,
 *    timing summaries from the MetricsRegistry, and cumulative-bucket
 *    histograms from stats::LogHistogram snapshots — the pull-based
 *    interface production monitoring expects.
 *  - JSONL snapshots: one self-contained JSON object per line with a
 *    monotone timestamp, pool occupancy, recorder state, all metrics,
 *    and optional windowed-latency percentiles — the append-only
 *    artifact the CI schema gate validates.
 *  - PeriodicSampler: a background thread (or a manually pumped
 *    sampleOnce() for virtual-time drivers and tests) publishing one
 *    JSONL line per interval.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "stats/log_histogram.h"

namespace recsim {
namespace obs {

/** @p s with JSON string escaping applied (no surrounding quotes). */
std::string jsonEscape(const std::string& s);

/**
 * Sanitize a dot-scoped metric name into a legal Prometheus metric
 * name: [a-zA-Z_:][a-zA-Z0-9_:]*, with '.' and any other illegal
 * character mapped to '_', and a "recsim_" prefix applied.
 */
std::string prometheusName(const std::string& name);

/**
 * The registry in Prometheus text exposition format: counters as
 * `counter`, gauges as `gauge`, each timing series as a `summary`
 * (_count/_sum) plus _min/_max gauges.
 */
std::string prometheusText(const MetricsRegistry& registry);

/**
 * One LogHistogram snapshot as a Prometheus `histogram`: cumulative
 * `le`-labelled buckets over the non-empty range, +Inf bucket, _sum
 * and _count.
 */
std::string prometheusHistogram(
    const std::string& name, const stats::LogHistogramSnapshot& snap);

/**
 * One telemetry snapshot as a single JSONL line (no trailing
 * newline): {"seq":..,"t_s":..,"pool":{..},"recorder":{..},
 * "counters":{..},"gauges":{..},"timings":{..}[,"latency":{..}]}.
 * @p latency, when non-null, adds windowed-percentile fields
 * (count/p50_s/p95_s/p99_s/max_s) from the histogram.
 */
std::string telemetryJsonLine(
    uint64_t seq, double t_s, const MetricsRegistry& registry,
    const FlightRecorder& recorder,
    const stats::WindowedHistogram* latency = nullptr);

/**
 * Publishes one telemetryJsonLine() per interval — pool occupancy,
 * registry contents and recorder state, optionally with rolling
 * latency percentiles from an attached WindowedHistogram.
 *
 * Two modes:
 *  - start()/stop(): a background thread samples every `interval_s`
 *    of wall time (serving drivers, long training runs);
 *  - sampleOnce(): manual pumping for virtual-time replay loops,
 *    benches and tests — no thread, fully deterministic call count.
 * Lines accumulate in memory (lines()) and are flushed to
 * `jsonl_path` by writeJsonl() / the destructor when a path is set.
 */
class PeriodicSampler
{
  public:
    struct Config
    {
        double interval_s = 1.0;
        /** When non-empty, the destructor writes the lines here. */
        std::string jsonl_path;
        /** Optional rolling-percentile source for the lines. */
        const stats::WindowedHistogram* latency = nullptr;
    };

    explicit PeriodicSampler(Config config);
    ~PeriodicSampler();

    PeriodicSampler(const PeriodicSampler&) = delete;
    PeriodicSampler& operator=(const PeriodicSampler&) = delete;

    /** Begin background sampling (idempotent). */
    void start();

    /** Stop the background thread (idempotent; also called by the
     *  destructor). Takes one final sample before stopping. */
    void stop();

    /** Take one sample now, on the calling thread. Thread-safe. */
    void sampleOnce();

    /** Copy of the JSONL lines emitted so far. Thread-safe. */
    std::vector<std::string> lines() const;

    /** Write all lines to @p path (one per line). False on I/O
     *  failure. */
    bool writeJsonl(const std::string& path) const;

  private:
    void samplerLoop();

    Config config_;
    mutable std::mutex mutex_;
    std::vector<std::string> lines_;
    uint64_t seq_ = 0;
    uint64_t start_ns_ = 0;

    std::thread thread_;
    std::mutex wake_mutex_;
    std::condition_variable wake_cv_;
    bool running_ = false;
    bool stop_requested_ = false;
};

} // namespace obs
} // namespace recsim
