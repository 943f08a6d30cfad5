/**
 * @file
 * Predicted-vs-measured drift monitor: folds the flight recorder's
 * per-node spans against the analytical cost model's per-node
 * predictions (cost::IterationModel::nodeBreakdown(), passed in as a
 * plain node_id -> seconds map so obs stays dependency-free) and flags
 *  - *node drift*: a node whose measured mean runtime is off its
 *    prediction by more than a configurable ratio, and
 *  - *straggler steps*: steps whose wall time exceeds a multiple of
 *    the rolling median of the preceding window — the outlier
 *    detection the paper's fleet accounting uses to separate "the
 *    model is wrong about this operator" from "this step hit a stall".
 *
 * This closes the predicted/simulated/measured triangle
 * (bench/validation_graph_breakdown) as a *runtime* check: a trainer
 * or serving driver can keep a DriftMonitor fed from the recorder and
 * alarm when the deployed cost model stops describing the machine.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"

namespace recsim {
namespace obs {

/** Drift verdict for one StepGraph node. */
struct NodeDrift
{
    std::string node_id;
    double predicted_s = 0.0;
    double measured_mean_s = 0.0;
    uint64_t samples = 0;
    /** measured / predicted; 0 when either side is missing. */
    double ratio = 0.0;
    /** ratio outside [1/threshold, threshold] with enough samples. */
    bool flagged = false;
};

/** One step flagged by the rolling-median outlier detector. */
struct StragglerStep
{
    uint64_t step = 0;
    double seconds = 0.0;
    /** Rolling median of the preceding window at that step. */
    double median_s = 0.0;
    double ratio = 0.0;
};

/** Everything the monitor concluded. */
struct DriftReport
{
    std::vector<NodeDrift> nodes;        ///< Prediction order (sorted ids).
    std::vector<StragglerStep> stragglers;
    uint64_t steps_observed = 0;
    /** max over flagged-eligible nodes of |log(ratio)| (0 if none). */
    double worst_abs_log_ratio = 0.0;

    /** Node ids with flagged == true, in order. */
    std::vector<std::string> flaggedNodes() const;
};

/** Thresholds of the drift monitor. */
struct DriftConfig
{
    /** Flag a node when measured/predicted leaves
     *  [1/ratio_threshold, ratio_threshold]. */
    double ratio_threshold = 1.5;
    /** Minimum samples before a node may be flagged. */
    uint64_t min_samples = 3;
    /** Rolling-median window for straggler detection. */
    std::size_t median_window = 32;
    /** Flag a step at > straggler_factor x rolling median. */
    double straggler_factor = 2.0;
    /** Steps before the window fills that are never flagged. */
    std::size_t warmup_steps = 8;
};

/**
 * Accumulates measured per-node times and per-step wall times, then
 * folds them against the predictions. Not thread-safe (one monitor
 * per driver thread; the recorder is the concurrent buffer).
 */
class DriftMonitor
{
  public:
    explicit DriftMonitor(std::map<std::string, double> predicted,
                          DriftConfig config = DriftConfig());

    /** Record one measured execution of @p node_id. */
    void observeNode(const std::string& node_id, double seconds);

    /** Record one step's wall time (steps in increasing order). */
    void observeStep(uint64_t step, double seconds);

    /**
     * Fold recorder samples from wall-clock tracks (simulated ones are
     * skipped). The values of samples whose channel name matches a
     * predicted node id are summed per (node, step) — the executor
     * records one span per visit (forward and backward separately)
     * while the cost model predicts whole-iteration node seconds —
     * and each per-step total feeds observeNode(). Samples on
     * @p step_channel, the trainer's per-step span by default, feed
     * observeStep(). Other channels are ignored.
     */
    void ingest(const FlightRecorder& recorder,
                const std::vector<Sample>& samples,
                const std::string& step_channel = "train.iteration");

    DriftReport report() const;

    const DriftConfig& config() const { return config_; }

  private:
    struct NodeAccum
    {
        double sum_s = 0.0;
        uint64_t samples = 0;
    };

    DriftConfig config_;
    std::map<std::string, double> predicted_;
    std::map<std::string, NodeAccum> measured_;
    std::vector<std::pair<uint64_t, double>> step_seconds_;
};

} // namespace obs
} // namespace recsim
