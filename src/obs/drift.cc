#include "obs/drift.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace recsim {
namespace obs {

std::vector<std::string>
DriftReport::flaggedNodes() const
{
    std::vector<std::string> out;
    for (const NodeDrift& node : nodes) {
        if (node.flagged)
            out.push_back(node.node_id);
    }
    return out;
}

DriftMonitor::DriftMonitor(std::map<std::string, double> predicted,
                           DriftConfig config)
    : config_(config), predicted_(std::move(predicted))
{
}

void
DriftMonitor::observeNode(const std::string& node_id, double seconds)
{
    NodeAccum& acc = measured_[node_id];
    acc.sum_s += seconds;
    ++acc.samples;
}

void
DriftMonitor::observeStep(uint64_t step, double seconds)
{
    step_seconds_.emplace_back(step, seconds);
}

void
DriftMonitor::ingest(const FlightRecorder& recorder,
                     const std::vector<Sample>& samples,
                     const std::string& step_channel)
{
    // Resolve channel and track ids once; samples only carry ids.
    const std::vector<std::string> names = recorder.channels();
    const std::vector<Track> tracks = recorder.tracks();
    // Node spans are summed per (node, step): the executor records one
    // span per visit (forward and backward halves separately), while
    // nodeBreakdown() predicts whole-iteration node seconds.
    std::map<std::pair<uint32_t, uint64_t>, double> per_step;
    for (const Sample& sample : samples) {
        // The DES's simulated spans share the node channels.
        if (sample.channel >= names.size() ||
            sample.track >= tracks.size() ||
            tracks[sample.track].simulated)
            continue;
        const std::string& name = names[sample.channel];
        if (name == step_channel) {
            observeStep(sample.step, sample.value);
        } else if (predicted_.count(name)) {
            per_step[{sample.channel, sample.step}] += sample.value;
        }
    }
    for (const auto& [key, seconds] : per_step)
        observeNode(names[key.first], seconds);
}

DriftReport
DriftMonitor::report() const
{
    DriftReport out;

    for (const auto& [node_id, predicted_s] : predicted_) {
        NodeDrift drift;
        drift.node_id = node_id;
        drift.predicted_s = predicted_s;
        const auto it = measured_.find(node_id);
        if (it != measured_.end() && it->second.samples > 0) {
            drift.samples = it->second.samples;
            drift.measured_mean_s =
                it->second.sum_s /
                static_cast<double>(it->second.samples);
        }
        if (predicted_s > 0.0 && drift.samples >= config_.min_samples) {
            drift.ratio = drift.measured_mean_s / predicted_s;
            drift.flagged = drift.ratio > config_.ratio_threshold ||
                drift.ratio < 1.0 / config_.ratio_threshold;
            out.worst_abs_log_ratio =
                std::max(out.worst_abs_log_ratio,
                         std::fabs(std::log(drift.ratio)));
        }
        out.nodes.push_back(std::move(drift));
    }

    // Straggler pass: compare each step against the median of the
    // preceding `median_window` steps (steps arrive in order from one
    // driver; a straggler inflates only its own comparison, not the
    // window it is judged against).
    out.steps_observed = step_seconds_.size();
    std::vector<double> window;
    for (std::size_t i = 0; i < step_seconds_.size(); ++i) {
        const auto& [step, seconds] = step_seconds_[i];
        if (i >= config_.warmup_steps && !window.empty()) {
            std::vector<double> sorted = window;
            std::nth_element(sorted.begin(),
                             sorted.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     sorted.size() / 2),
                             sorted.end());
            const double median = sorted[sorted.size() / 2];
            if (median > 0.0 &&
                seconds > config_.straggler_factor * median) {
                out.stragglers.push_back(
                    {step, seconds, median, seconds / median});
            }
        }
        window.push_back(seconds);
        if (window.size() > config_.median_window)
            window.erase(window.begin());
    }
    return out;
}

} // namespace obs
} // namespace recsim
