/**
 * @file
 * Shared pieces of the perfbench runner: run options, the result every
 * workload fills in, the host block, the in-memory span recorder of a
 * traced run, and small timing/statistics helpers.
 *
 * Each workload drives recsim only through its top-level public entry
 * points (train::trainSingleThread, serve::InferenceEngine::replay,
 * core::DesignSpaceExplorer, fleet::utilizationStudy, sim::runDistSim)
 * plus the public calls a traced run times one by one.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "model/config.h"
#include "obs/pool_metrics.h"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Identity of the measured source tree, printed in the host block. */
    std::string commit = "unknown";
    /** Where a traced run writes its spans (empty: do not write). */
    std::string trace_out;
};

/** One named value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload reports. `metrics` go into the final JSON line (the
 * names BENCHMARK.json lists for the run's trace mode); `extra` are
 * workload-specific metrics printed only in the text report. Every
 * metric is also printed in the text report.
 */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Metric> extra;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void addExtra(std::string name, double value, std::string unit)
    {
        extra.push_back({std::move(name), value, std::move(unit)});
    }
    /** Record an output check; a failed one marks the run incorrect. */
    void check(bool ok, const std::string& what);
};

Result runTrain(const Options& options, bool mlp_heavy);
Result runServe(const Options& options);
Result runSimulate(const Options& options);

/**
 * Add the per-layer metrics every workload's traced run reports (the
 * `per_layer` list of BENCHMARK.json): tracing overhead, StepGraph
 * lowering time and size, graph::summarize work per example for
 * @p models (the workload's model, or its design points), and thread
 * pool jobs/tasks per unit of work from @p pool over @p units units.
 */
void addCommonLayerMetrics(Result& result,
                           const std::vector<recsim::model::DlrmConfig>&
                               models,
                           bool fuse, double overhead,
                           const recsim::obs::PoolSnapshot& pool,
                           double units);

/** Pool size the tensor workloads run at (RECSIM_THREADS is ignored). */
constexpr std::size_t kPoolThreads = 2;

/** Monotonic wall seconds. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of @p values (0 for an empty sample). */
double median(std::vector<double> values);

/** Peak resident set size of this process, in MB (getrusage). */
double peakRssMb();

/** Print the host and build block (cores, pool, SIMD, CPU, build, commit). */
void printHostBlock(const Options& options, std::size_t pool_threads);

/**
 * In-memory span recorder of a traced run. A span is one timed public
 * call: name, start, end and the index of its parent span (-1 for a
 * root). Spans open and close on the calling thread in stack order;
 * nothing is written until the run ends.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start_s = 0.0;
        double end_s = 0.0;
        int parent = -1;
    };

    /** Spans are recorded only between enable() and disable(). */
    void enable() { enabled_ = true; }
    void disable() { enabled_ = false; }
    bool enabled() const { return enabled_; }

    int open(std::string name);
    void close(int index);

    const std::vector<Span>& spans() const { return spans_; }

    /** Summed duration of every span named @p name, seconds. */
    double total(const std::string& name) const;
    /** Number of spans named @p name. */
    std::size_t count(const std::string& name) const;
    /** Mean duration of the spans named @p name, seconds. */
    double mean(const std::string& name) const;

    /** Write the spans as a Chrome trace_event JSON file. */
    bool write(const std::string& path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** The process-wide recorder of a traced run. */
SpanRecorder& spans();

/** RAII span around one public call (no-op while recording is off). */
class Scoped
{
  public:
    explicit Scoped(const char* name)
        : index_(spans().enabled() ? spans().open(name) : -1)
    {
    }
    ~Scoped()
    {
        if (index_ >= 0)
            spans().close(index_);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

  private:
    int index_;
};

} // namespace perfbench
