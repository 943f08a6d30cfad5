/**
 * @file
 * Step-executor benchmark with a serial-equivalence gate. Runs one
 * training step of a small DLRM through GraphExecutor's two schedules
 * — serial (one node per wave in node order) and the dependency-aware
 * waves — at pool sizes 1/2/4/8, verifies the waves' losses stay
 * bitwise-identical to the serial schedule's at every thread count,
 * reports the graph's wavefront occupancy (how many nodes each level
 * can run concurrently), and emits BENCH_step_executor.json for CI to
 * diff and gate on. An overlap-efficiency sweep over representative
 * placements rides along: critical path / serial sum of the analytical
 * per-node times, the figure the cost model now reports per config.
 *
 * A telemetry-overhead measurement rides along: the serial schedule
 * runs again with the flight recorder, a rolling step-time histogram
 * and the periodic JSONL sampler all live, and the JSON reports the
 * enabled/disabled ratio CI gates at < 2% (the recorder must be cheap
 * enough to leave on). --telemetry PATH writes the sampler's JSONL
 * lines for the CI schema gate.
 *
 * Usage: step_executor [--json PATH] [--telemetry PATH] [--quick]
 *                      [--trace out.json]
 */
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cost/iteration_model.h"
#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/dlrm.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/pool_metrics.h"
#include "stats/log_histogram.h"
#include "train/step_runner.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

using namespace recsim;

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-iteration examples/s of fn (one warmup call first). */
template <typename F>
double
measureExamplesPerSec(F&& fn, double examples_per_iter,
                      double min_seconds)
{
    fn();
    double best = std::numeric_limits<double>::infinity();
    double total = 0.0;
    int iters = 0;
    while ((total < min_seconds || iters < 3) && iters < 10000) {
        const double t0 = nowSeconds();
        fn();
        const double dt = nowSeconds() - t0;
        best = std::min(best, dt);
        total += dt;
        ++iters;
    }
    return examples_per_iter / best;
}

/**
 * Train one step per batch with the serial schedule and with the
 * waves (separate same-seed models, same batches) and report whether
 * every per-step loss matches bitwise.
 */
bool
lossesBitwiseEqual(const model::DlrmConfig& cfg,
                   const train::GraphExecutor& serial,
                   const train::GraphExecutor& executor,
                   const std::vector<data::MiniBatch>& batches)
{
    model::Dlrm serial_model(cfg, 1);
    model::Dlrm exec_model(cfg, 1);
    for (const auto& batch : batches) {
        const double a = serial.runStep(serial_model, batch);
        const double b = executor.runStep(exec_model, batch);
        if (std::memcmp(&a, &b, sizeof(double)) != 0)
            return false;
        serial_model.zeroGrad();
        exec_model.zeroGrad();
    }
    return true;
}

struct ThreadResult
{
    std::size_t threads = 0;
    double examples_per_s = 0.0;
    bool loss_equal = false;
};

struct OverlapRow
{
    std::string config;
    double serial_sum_s = 0.0;
    double critical_path_s = 0.0;
    double overlap = 1.0;
};

} // namespace

int
main(int argc, char** argv)
{
    bench::TraceSession trace(argc, argv);
    std::string json_path = "BENCH_step_executor.json";
    std::string telemetry_path;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else if (arg == "--telemetry" && i + 1 < argc)
            telemetry_path = argv[++i];
        else if (arg.rfind("--telemetry=", 0) == 0)
            telemetry_path = arg.substr(12);
        else if (arg == "--quick")
            quick = true;
    }
    const double min_seconds = quick ? 0.05 : 0.25;
    const std::size_t batch = quick ? 64 : 256;
    const std::size_t check_steps = quick ? 4 : 8;

    bench::banner("Step executor", "Inter-op parallelism over the "
                  "StepGraph",
                  "Serial walk vs dependency-aware executor at pool "
                  "sizes 1/2/4/8; results must\nstay bit-identical at "
                  "every thread count (gated in CI).");

    // Mixed dimensions give the graph projection nodes, so the waves
    // exercise emb -> proj chains alongside independent tables.
    const auto cfg = model::applyMixedDimensions(
        model::DlrmConfig::tinyReplica(8, 13, 2000, 16), 0.5, 4);
    const graph::StepGraph graph = graph::buildModelStepGraph(cfg);
    const train::GraphExecutor serial =
        train::GraphExecutor::serial(graph);
    const train::GraphExecutor executor(graph);

    data::DatasetConfig ds_cfg;
    ds_cfg.num_dense = cfg.num_dense;
    ds_cfg.sparse = cfg.sparse;
    data::SyntheticCtrDataset ds(ds_cfg);
    const auto mb = ds.nextBatch(batch);
    std::vector<data::MiniBatch> check_batches;
    for (std::size_t i = 0; i < check_steps; ++i)
        check_batches.push_back(ds.nextBatch(batch));

    // Wavefront occupancy: how wide each level of the schedule is.
    std::size_t max_width = 0, total_nodes = 0;
    for (const auto& wave : executor.forwardWaves()) {
        max_width = std::max(max_width, wave.size());
        total_nodes += wave.size();
    }
    const double mean_width = executor.forwardWaves().empty()
        ? 0.0
        : static_cast<double>(total_nodes) /
            static_cast<double>(executor.forwardWaves().size());
    std::cout << util::format(
        "graph: {} nodes, {} forward waves (max width {}, mean {}), "
        "{} backward waves\n\n",
        graph.numNodes(), executor.forwardWaves().size(), max_width,
        util::fixed(mean_width, 2), executor.backwardWaves().size());

    // Serial reference at a 1-thread pool.
    auto& pool = util::globalThreadPool();
    model::Dlrm serial_model(cfg, 1);
    pool.resize(1);
    const double serial_eps = measureExamplesPerSec(
        [&] {
            serial.runStep(serial_model, mb);
            serial_model.zeroGrad();
        },
        static_cast<double>(batch), min_seconds);
    std::cout << util::format("serial walk      {} examples/s\n",
                              bench::kexps(serial_eps));

    const obs::PoolSnapshot sweep_before = obs::snapshotThreadPool();
    std::vector<ThreadResult> results;
    for (const std::size_t t : {std::size_t(1), std::size_t(2),
                                std::size_t(4), std::size_t(8)}) {
        pool.resize(t);
        ThreadResult r;
        r.threads = t;
        model::Dlrm exec_model(cfg, 1);
        r.examples_per_s = measureExamplesPerSec(
            [&] {
                executor.runStep(exec_model, mb);
                exec_model.zeroGrad();
            },
            static_cast<double>(batch), min_seconds);
        r.loss_equal =
            lossesBitwiseEqual(cfg, serial, executor, check_batches);
        results.push_back(r);
        std::cout << util::format(
            "executor {}t      {} examples/s  (vs serial {})  "
            "loss bitwise {}\n",
            t, bench::kexps(r.examples_per_s),
            bench::ratio(r.examples_per_s / serial_eps),
            r.loss_equal ? "EQUAL" : "DIFFERS");
    }
    pool.resize(1);

    // What the sweep itself cost the pool, published as gauges under
    // bench.step_executor.pool.* (the snapshot/delta API).
    const obs::PoolSnapshot sweep_delta =
        obs::poolDelta(sweep_before, obs::snapshotThreadPool());
    obs::publishThreadPoolMetrics("bench.step_executor.pool",
                                  sweep_delta);
    std::cout << util::format(
        "\npool during sweep: {} jobs, {} tasks\n", sweep_delta.jobs,
        sweep_delta.tasks);

    // Overlap-efficiency sweep: how much of the per-node serial sum
    // the graph edges hide for representative placements.
    std::vector<OverlapRow> overlap_rows;
    {
        using placement::EmbeddingPlacement;
        auto add = [&overlap_rows](const std::string& label,
                                   const model::DlrmConfig& m,
                                   const cost::SystemConfig& sys) {
            const auto est = cost::IterationModel(m, sys).estimate();
            if (!est.feasible)
                return;
            overlap_rows.push_back({label, est.serial_sum_seconds,
                                    est.critical_path_seconds,
                                    est.overlap_efficiency});
        };
        const auto m = model::DlrmConfig::testSuite(256, 32, 100000);
        add("cpu t1 ps2", m,
            cost::SystemConfig::cpuSetup(1, 2, 1, 200, 1));
        add("cpu t4 ps8", m,
            cost::SystemConfig::cpuSetup(4, 8, 2, 200, 1));
        add("bb gpu_memory", m,
            cost::SystemConfig::bigBasinSetup(
                EmbeddingPlacement::GpuMemory, 1600));
        add("bb remote_ps", m,
            cost::SystemConfig::bigBasinSetup(
                EmbeddingPlacement::RemotePs, 1600, 4));
        std::cout << "\noverlap efficiency (critical path / serial "
                     "node sum, lower = more comm hidden):\n";
        for (const auto& row : overlap_rows) {
            std::cout << util::format("  {}  {}\n",
                                      util::padRight(row.config, 16),
                                      util::fixed(row.overlap, 3));
        }
    }

    // Telemetry overhead: the same serial schedule with the whole
    // observability pipeline live — the flight recorder recording every
    // span (one per node visit, plus model.fwd, loss and model.bwd), a
    // rolling step-time histogram fed each step, and
    // the periodic sampler emitting JSONL in the background — vs the
    // disabled path (one relaxed load per site). CI gates the ratio
    // at < 2%.
    double telemetry_off_eps = 0.0, telemetry_on_eps = 0.0;
    double telemetry_paired_overhead = 1.0;
    std::size_t sampler_lines = 0;
    uint64_t recorder_samples = 0;
    {
        model::Dlrm tm(cfg, 1);
        // The instrumentation cost is per node visit while the node
        // work scales with the batch, so the overhead ratio is only
        // comparable at a fixed batch size: pin it to the full-mode
        // batch even under --quick.
        const std::size_t telemetry_batch = 256;
        const auto telemetry_mb = ds.nextBatch(telemetry_batch);
        // Under --trace the session's recorder keeps what it has
        // recorded and stays on afterwards.
        auto& recorder = obs::FlightRecorder::global();
        const bool tracing = trace.active();
        if (!tracing)
            recorder.configure(1 << 16);
        const uint64_t recorded_before = recorder.totalRecorded();
        stats::WindowedHistogram step_hist(0.25);
        obs::PeriodicSampler::Config sampler_cfg;
        sampler_cfg.interval_s = 0.1;
        sampler_cfg.latency = &step_hist;
        sampler_cfg.jsonl_path = telemetry_path;
        obs::PeriodicSampler sampler(sampler_cfg);
        const double origin = nowSeconds();

        // Machine speed drifts (shared runners, frequency scaling), so
        // any measurement that runs one mode for a stretch and then the
        // other confounds the telemetry cost with whatever the machine
        // did in between. Interleave at the single-iteration level:
        // each round runs one disabled and one enabled step back to
        // back and keeps each mode's best iteration time, so both
        // modes sample the same speed distribution and the ratio
        // isolates the instrumentation. The sampler thread runs
        // throughout and taxes both modes alike.
        const double telemetry_seconds = std::max(4.0 * min_seconds, 0.6);
        sampler.start();
        double best_off = std::numeric_limits<double>::infinity();
        double best_on = best_off;
        double total = 0.0;
        std::vector<double> paired_ratios;
        for (int round = 0;
             (total < telemetry_seconds || round < 64) && round < 20000;
             ++round) {
            recorder.setEnabled(false);
            double t0 = nowSeconds();
            serial.runStep(tm, telemetry_mb);
            tm.zeroGrad();
            const double dt_off = nowSeconds() - t0;
            total += dt_off;
            recorder.setEnabled(true);
            t0 = nowSeconds();
            serial.runStep(tm, telemetry_mb);
            tm.zeroGrad();
            const double dt_on = nowSeconds() - t0;
            step_hist.add(t0 - origin, dt_on);
            total += dt_on;
            if (round == 0)
                continue; // warmup: both paths touch cold caches
            best_off = std::min(best_off, dt_off);
            best_on = std::min(best_on, dt_on);
            paired_ratios.push_back(dt_on / dt_off);
        }
        sampler.stop();
        telemetry_off_eps =
            static_cast<double>(telemetry_batch) / best_off;
        telemetry_on_eps =
            static_cast<double>(telemetry_batch) / best_on;
        // Median of the per-round enabled/disabled ratios: a spike in
        // any single iteration moves one sample, never the estimate.
        std::nth_element(paired_ratios.begin(),
                         paired_ratios.begin() +
                             paired_ratios.size() / 2,
                         paired_ratios.end());
        telemetry_paired_overhead =
            paired_ratios[paired_ratios.size() / 2];
        sampler_lines = sampler.lines().size();
        recorder_samples = recorder.totalRecorded() - recorded_before;
        recorder.setEnabled(tracing);
        if (!tracing)
            recorder.reset();
    }
    std::cout << util::format(
        "telemetry: serial {} examples/s disabled, {} enabled "
        "(overhead x{} paired-median), {} recorder samples, "
        "{} sampler lines\n",
        bench::kexps(telemetry_off_eps), bench::kexps(telemetry_on_eps),
        util::fixed(telemetry_paired_overhead, 4), recorder_samples,
        sampler_lines);
    if (!telemetry_path.empty())
        std::cout << "wrote " << telemetry_path << "\n";

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    out << "{\n";
    out << "  \"threads\": " << util::configuredThreads() << ",\n";
    out << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n";
    out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    bench::writeHostJson(out, util::configuredThreads());
    out << "  \"graph_nodes\": " << graph.numNodes() << ",\n";
    out << "  \"forward_wave_widths\": [";
    for (std::size_t i = 0; i < executor.forwardWaves().size(); ++i) {
        out << (i ? ", " : "") << executor.forwardWaves()[i].size();
    }
    out << "],\n";
    out << "  \"backward_wave_widths\": [";
    for (std::size_t i = 0; i < executor.backwardWaves().size(); ++i) {
        out << (i ? ", " : "") << executor.backwardWaves()[i].size();
    }
    out << "],\n";
    out << "  \"serial_examples_per_s\": " << serial_eps << ",\n";
    out << "  \"executor\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        out << "    {\"threads\": " << r.threads
            << ", \"examples_per_s\": " << r.examples_per_s
            << ", \"speedup\": "
            << (serial_eps > 0.0 ? r.examples_per_s / serial_eps : 0.0)
            << ", \"loss_equal\": "
            << (r.loss_equal ? "true" : "false") << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"telemetry\": {\n"
        << "    \"disabled_examples_per_s\": " << telemetry_off_eps
        << ",\n"
        << "    \"enabled_examples_per_s\": " << telemetry_on_eps
        << ",\n"
        << "    \"overhead_ratio\": " << telemetry_paired_overhead << ",\n"
        << "    \"recorder_samples\": " << recorder_samples << ",\n"
        << "    \"sampler_lines\": " << sampler_lines << ",\n"
        << "    \"pool_sweep_jobs\": " << sweep_delta.jobs << ",\n"
        << "    \"pool_sweep_tasks\": " << sweep_delta.tasks << "\n"
        << "  },\n";
    out << "  \"overlap\": [\n";
    for (std::size_t i = 0; i < overlap_rows.size(); ++i) {
        const auto& row = overlap_rows[i];
        out << "    {\"config\": \"" << row.config
            << "\", \"serial_sum_s\": " << row.serial_sum_s
            << ", \"critical_path_s\": " << row.critical_path_s
            << ", \"overlap_efficiency\": " << row.overlap << "}"
            << (i + 1 < overlap_rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
    return 0;
}
