/**
 * @file
 * Capstone validation of the StepGraph contract ("one iteration, one
 * source of truth"): three independent executions of the same per-step
 * operator graph report time under the same node ids —
 *   predicted  — IterationModel::nodeBreakdown() (closed-form rates),
 *   simulated  — the DES's DistSimResult::node_seconds (queueing),
 *   measured   — the real trainer, whose graph walk records a span
 *                under every node id (train/step_runner.cc).
 * Agreement per node id is evidence that the three consumers read the
 * graph the same way; the residual gaps are the documented abstractions
 * (queueing in the DES, malloc/dispatch noise in the measurement).
 *
 * The whole pipeline runs twice, unfused and fused (graph::fusePass:
 * forward GEMM epilogue fusion, backward grad-GEMM fusion with the
 * bias grad and dReLU mask riding the GEMM sweeps, the interaction
 * flatten fusion, and per-device embedding-lookup grouping), so the
 * fusion win appears in all three columns at once — the same pass that
 * rewrites the executor's graph rewrites the cost model's and the
 * DES's. The measured unfused and fused training jobs alternate
 * (U F F U U F), so host drift lands on both columns alike, and each
 * measured iteration time is the median over a variant's iterations.
 *
 * Usage: validation_graph_breakdown [--json PATH] [--trace out.json]
 * Emits BENCH_graph_breakdown.json for the CI artifact.
 */
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "cost/iteration_model.h"
#include "data/dataset.h"
#include "graph/step_graph.h"
#include "obs/drift.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/dist_sim.h"
#include "train/trainer.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

using namespace recsim;

namespace {

constexpr std::size_t kBatch = 256;
constexpr std::size_t kSteps = 20;
constexpr std::size_t kEval = 1024;
/** Which variant trains in each measured job: unfused and fused in
 *  alternation, so neither column collects all of the host's drift. */
constexpr bool kFusedJobs[] = {false, true, true, false, false, true};
/** Recorder capacity of a job run without --trace. */
constexpr std::size_t kRecorderCapacity = 1 << 16;

std::string
us(double seconds)
{
    return util::fixed(seconds * 1e6, 1);
}

std::string
jsonValue(const std::map<std::string, double>& m, const std::string& id)
{
    const auto it = m.find(id);
    if (it == m.end())
        return "null";
    std::ostringstream os;
    os.precision(12);
    os << it->second;
    return os.str();
}

/** One full predicted/simulated/measured pass over one graph variant. */
struct Variant
{
    cost::IterationModel analytical;
    cost::IterationEstimate estimate;
    sim::DistSimResult simulated;
    std::map<std::string, double> predicted;
    std::map<std::string, double> measured;
    /** Median wall time of the measured iterations. */
    double measured_iter_seconds = 0.0;
    std::size_t measured_iters = 0;
    /** Every measured iteration's wall seconds, and each node's wall
     *  seconds summed, over the variant's jobs. */
    std::vector<double> iter_seconds;
    std::map<std::string, double> node_total;
    /** Flight-recorder samples from the variant's first measured job. */
    std::vector<obs::Sample> rec_samples;
    /** Measured-vs-predicted verdicts from those samples. */
    obs::DriftReport drift;
    /** Hot-tier hit rates (cached variant only; -1 = not applicable). */
    double predicted_hit_rate = -1.0;
    double measured_hit_rate = -1.0;
};

bool
endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
        s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Aggregate hot-tier hit rate from the CachedBackend obs counters. */
double
measuredHitRate()
{
    uint64_t hot = 0, cold = 0;
    for (const auto& [name, value] :
         obs::MetricsRegistry::global().counters()) {
        if (endsWith(name, ".cache.hot_lookups"))
            hot += value;
        else if (endsWith(name, ".cache.cold_lookups"))
            cold += value;
    }
    const uint64_t n = hot + cold;
    return n ? static_cast<double>(hot) / static_cast<double>(n) : -1.0;
}

/** The predicted and simulated columns of one graph variant. */
Variant
priceVariant(const model::DlrmConfig& m, const cost::SystemConfig& sys,
             const cost::CostParams& params)
{
    Variant v{cost::IterationModel(m, sys, params), {}, {}, {}, {}, 0.0,
              0, {}, {}, {}, {}};
    v.estimate = v.analytical.estimate();
    for (const auto& node : v.analytical.nodeBreakdown())
        v.predicted[node.node_id] = node.seconds;

    // Simulated: the DES schedules the same (fused or not) graph nodes
    // at their prices; CostParams::fuse_step_graph flows through.
    sim::DistSimConfig sim_cfg;
    sim_cfg.model = m;
    sim_cfg.system = sys;
    sim_cfg.params = params;
    sim_cfg.measure_seconds = 0.5;
    v.simulated = sim::runDistSim(sim_cfg);
    return v;
}

/**
 * One measured training job on @p v's graph: the real trainer walks
 * the same graph, and every node visit records a span under its node
 * id. Comm nodes have no in-process counterpart and stay blank in the
 * measured column. The job's span samples give the measured column
 * and the iteration times, and the first job's also feed the drift
 * monitor. Under --trace (@p own_recording false) the session's
 * recorder stays on and keeps its samples, so the job reads only the
 * ones that start after it does. A job that lost a sample to ring
 * wraparound exits with an error.
 */
void
measureJob(Variant& v, const model::DlrmConfig& m, bool fuse,
           bool own_recording, double hot_tier_bytes = 0.0)
{
    data::DatasetConfig data_cfg;
    data_cfg.num_dense = m.num_dense;
    data_cfg.sparse = m.sparse;
    data_cfg.seed = 7;
    data::SyntheticCtrDataset dataset(data_cfg);
    dataset.materialize(kSteps * kBatch + kEval);
    train::TrainConfig train_cfg;
    train_cfg.batch_size = kBatch;
    train_cfg.epochs = 1;
    train_cfg.fuse_graph = fuse;
    if (hot_tier_bytes > 0.0) {
        train_cfg.embedding_backend =
            train::EmbeddingBackendKind::Cached;
        train_cfg.hot_tier_bytes = hot_tier_bytes;
        // Refresh the hot set every batch so only the very first batch
        // gathers cold from an empty set.
        train_cfg.hot_tier_refresh_every = 1;
        v.predicted_hit_rate = v.analytical.hotTierHitFraction();
        obs::MetricsRegistry::global().reset();
    }

    obs::FlightRecorder& recorder = obs::FlightRecorder::global();
    if (own_recording) {
        recorder.configure(kRecorderCapacity);
        recorder.setEnabled(true);
    }
    const uint64_t recorded_before = recorder.totalRecorded();
    const uint64_t job_start = recorder.nowNs();
    train::trainSingleThread(m, dataset, train_cfg, kEval);
    const uint64_t recorded_in_job =
        recorder.totalRecorded() - recorded_before;
    if (hot_tier_bytes > 0.0)
        v.measured_hit_rate = measuredHitRate();
    // The job's wall-clock samples: under --trace the DES runs of
    // priceVariant() left simulated spans on the same node channels.
    const std::vector<obs::Sample> recorded = recorder.snapshot();
    const std::vector<obs::Track> tracks = recorder.tracks();
    std::vector<obs::Sample> samples;
    for (const obs::Sample& sample : recorded) {
        if (sample.t_ns >= job_start && !tracks[sample.track].simulated)
            samples.push_back(sample);
    }
    // A stripe that wrapped during the job would bias the measured
    // column and the iteration times without notice.
    if (samples.size() != recorded_in_job)
        util::fatal("a measured job kept {} of the {} samples it recorded",
                    samples.size(), recorded_in_job);
    if (own_recording) {
        recorder.setEnabled(false);
        recorder.reset();
    }

    const bool first_job = v.iter_seconds.empty();
    const std::vector<std::string> names = recorder.channels();
    for (const obs::Sample& sample : samples) {
        if (!sample.span)
            continue;
        const std::string& name = names[sample.channel];
        v.node_total[name] += sample.value;
        if (name == "train.iteration")
            v.iter_seconds.push_back(sample.value);
    }
    if (first_job) {
        obs::DriftMonitor monitor(v.predicted);
        monitor.ingest(recorder, samples);
        v.drift = monitor.report();
        v.rec_samples = std::move(samples);
    }
}

/** Fold the measured jobs of @p v into its measured columns. */
void
summarizeJobs(Variant& v)
{
    v.measured_iters = v.iter_seconds.size();
    if (v.measured_iters == 0)
        return;
    const auto n = static_cast<double>(v.measured_iters);
    for (const auto& node : v.analytical.stepGraph().nodes) {
        const auto it = v.node_total.find(node.id);
        if (it != v.node_total.end())
            v.measured[node.id] = it->second / n;
    }
    std::vector<double> sorted = v.iter_seconds;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t mid = sorted.size() / 2;
    v.measured_iter_seconds = sorted.size() % 2
        ? sorted[mid] : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

void
printVariantTable(const char* title, const Variant& v)
{
    std::cout << title << "\n";
    util::TextTable table;
    table.header({"node", "device", "predicted", "simulated",
                  "measured", "drift"});
    auto cell = [](const std::map<std::string, double>& column,
                   const std::string& id) {
        const auto it = column.find(id);
        return it == column.end() ? std::string("-") : us(it->second);
    };
    std::map<std::string, const obs::NodeDrift*> drift_by_id;
    for (const auto& node : v.drift.nodes)
        drift_by_id[node.node_id] = &node;
    auto drift_cell = [&drift_by_id](const std::string& id) {
        const auto it = drift_by_id.find(id);
        if (it == drift_by_id.end() || it->second->ratio == 0.0)
            return std::string("-");
        return util::fixed(it->second->ratio, 2) +
            (it->second->flagged ? " !" : "");
    };
    for (const auto& node : v.analytical.stepGraph().nodes) {
        table.row({node.id, graph::toString(node.device),
                   cell(v.predicted, node.id),
                   cell(v.simulated.node_seconds, node.id),
                   cell(v.measured, node.id), drift_cell(node.id)});
    }
    table.row({"iteration", "-", us(v.estimate.iteration_seconds),
               us(v.simulated.mean_iteration_seconds),
               us(v.measured_iter_seconds), "-"});
    std::cout << table.render() << "\n";
}

/**
 * Drift-monitor self-test: take the measured per-iteration node means
 * as the "prediction" (so every ratio is exactly 1), inject a 3x
 * slowdown into one node's recorded samples, and check the monitor
 * flags that node and only that node.
 */
struct SelfTest
{
    std::string node_id;
    bool pass = false;
    double flagged_ratio = 0.0;
    std::size_t flagged_count = 0;
};

SelfTest
driftSelfTest(const Variant& v)
{
    SelfTest st;
    std::map<std::string, double> baseline;
    uint64_t best_samples = 0;
    for (const auto& node : v.drift.nodes) {
        if (node.samples < 3)
            continue;
        baseline[node.node_id] = node.measured_mean_s;
        // Inject into the best-sampled node (ties: first in id order).
        if (node.samples > best_samples) {
            best_samples = node.samples;
            st.node_id = node.node_id;
        }
    }
    if (st.node_id.empty())
        return st;

    const obs::FlightRecorder& recorder =
        obs::FlightRecorder::global();
    const std::vector<std::string> names = recorder.channels();
    uint32_t target = 0;
    bool found = false;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == st.node_id) {
            target = static_cast<uint32_t>(i);
            found = true;
        }
    }
    if (!found)
        return st;

    std::vector<obs::Sample> perturbed = v.rec_samples;
    for (obs::Sample& sample : perturbed) {
        if (sample.channel == target)
            sample.value *= 3.0;
    }
    obs::DriftMonitor monitor(baseline);
    monitor.ingest(recorder, perturbed);
    const obs::DriftReport report = monitor.report();
    const auto flagged = report.flaggedNodes();
    st.flagged_count = flagged.size();
    for (const auto& node : report.nodes) {
        if (node.node_id == st.node_id)
            st.flagged_ratio = node.ratio;
    }
    st.pass = flagged.size() == 1 && flagged[0] == st.node_id;
    return st;
}

void
emitNodes(std::ofstream& out, const Variant& v)
{
    std::map<std::string, const obs::NodeDrift*> drift_by_id;
    for (const auto& node : v.drift.nodes)
        drift_by_id[node.node_id] = &node;
    const auto& nodes = v.analytical.stepGraph().nodes;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto& node = nodes[i];
        const auto dit = drift_by_id.find(node.id);
        const obs::NodeDrift* drift =
            dit == drift_by_id.end() ? nullptr : dit->second;
        out << "    {\"id\": \"" << node.id << "\", \"kind\": \""
            << graph::toString(node.kind) << "\", \"device\": \""
            << graph::toString(node.device) << "\", \"predicted_s\": "
            << jsonValue(v.predicted, node.id) << ", \"simulated_s\": "
            << jsonValue(v.simulated.node_seconds, node.id)
            << ", \"measured_s\": " << jsonValue(v.measured, node.id)
            << ", \"drift_ratio\": ";
        if (drift != nullptr && drift->ratio != 0.0) {
            std::ostringstream os;
            os.precision(12);
            os << drift->ratio;
            out << os.str();
        } else {
            out << "null";
        }
        out << ", \"drift_flagged\": "
            << (drift != nullptr && drift->flagged ? "true" : "false")
            << ", \"hot_tier_bytes\": " << node.hot_tier_bytes
            << ", \"hot_hit_fraction\": " << node.hot_hit_fraction
            << "}" << (i + 1 < nodes.size() ? "," : "") << "\n";
    }
}

void
emitIterationSeconds(std::ofstream& out, const Variant& v)
{
    const auto precision = out.precision(12);
    out << "{\"predicted\": " << v.estimate.iteration_seconds
        << ", \"critical_path_seconds\": "
        << v.estimate.critical_path_seconds
        << ", \"simulated\": " << v.simulated.mean_iteration_seconds
        << ", \"measured\": " << v.measured_iter_seconds << "}";
    out.precision(precision);
}

} // namespace

int
main(int argc, char** argv)
{
    bench::TraceSession trace_session(argc, argv);
    std::string json_path = "BENCH_graph_breakdown.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
    }

    bench::banner("Validation: per-node graph breakdown",
                  "StepGraph as the single source of truth",
                  "Predicted vs simulated vs measured time per StepGraph "
                  "node (us/iteration,\nsame node ids across all three "
                  "consumers), unfused and after graph::fusePass.");

    // A shape small enough to actually train in-process, on the CPU
    // distributed setup so the graph carries PS comm nodes too.
    const auto m = model::DlrmConfig::testSuite(256, 8, 100000);
    const auto sys = cost::SystemConfig::cpuSetup(1, 2, 1, kBatch, 1);

    // The same per-node dispatch cost prices both variants, so the
    // fused column's win comes only from the graph rewrite: fewer
    // EmbeddingLookup nodes to dispatch and no separate bias/relu
    // passes over the GEMM outputs.
    cost::CostParams params;
    params.cpu_per_table_dispatch = 2.0e-6;
    cost::CostParams fused_params = params;
    fused_params.fuse_step_graph = true;

    // Tiered variant: a hot-tier budget covering ~30% of the planner's
    // table bytes (2 whole tables plus per-table row caches on the
    // rest), priced by the cost model/DES through
    // cost::tieredGatherBandwidth and executed by nn::CachedBackend,
    // whose measured hit rate validates the analytic prediction.
    cost::SystemConfig cached_sys = sys;
    const double hot_tier_budget = 0.3 * 1.25 * m.embeddingBytes();
    cached_sys.emb_hot_tier_bytes = hot_tier_budget;

    const bool own_recording = !trace_session.active();
    Variant unfused = priceVariant(m, sys, params);
    Variant fused = priceVariant(m, sys, fused_params);
    Variant cached = priceVariant(m, cached_sys, params);
    for (const bool fuse : kFusedJobs)
        measureJob(fuse ? fused : unfused, m, fuse, own_recording);
    measureJob(cached, m, false, own_recording, hot_tier_budget);
    for (Variant* v : {&unfused, &fused, &cached})
        summarizeJobs(*v);

    printVariantTable("unfused graph:", unfused);
    printVariantTable("fused graph (fusePass):", fused);
    printVariantTable("cached embedding backend (hot tier):", cached);

    const double hit_drift = std::abs(cached.predicted_hit_rate -
                                      cached.measured_hit_rate);
    std::cout << "hot tier: budget "
              << util::bytesToString(hot_tier_budget)
              << ", plan packs "
              << util::bytesToString(cached.analytical.plan().hot_tier_bytes)
              << "\n  hit rate: predicted "
              << bench::pct(cached.predicted_hit_rate) << " (analytic, "
              << "placement + zipfTopMass), measured "
              << bench::pct(cached.measured_hit_rate)
              << " (CachedBackend counters), drift "
              << util::fixed(hit_drift, 3) << "\n\n";

    util::TextTable cmp;
    cmp.header({"iteration", "unfused", "fused", "speedup"});
    auto speedup = [](double before, double after) {
        return after > 0.0 ? util::fixed(before / after, 3)
                           : std::string("-");
    };
    cmp.row({"predicted", us(unfused.estimate.iteration_seconds),
             us(fused.estimate.iteration_seconds),
             speedup(unfused.estimate.iteration_seconds,
                     fused.estimate.iteration_seconds)});
    cmp.row({"simulated", us(unfused.simulated.mean_iteration_seconds),
             us(fused.simulated.mean_iteration_seconds),
             speedup(unfused.simulated.mean_iteration_seconds,
                     fused.simulated.mean_iteration_seconds)});
    cmp.row({"measured", us(unfused.measured_iter_seconds),
             us(fused.measured_iter_seconds),
             speedup(unfused.measured_iter_seconds,
                     fused.measured_iter_seconds)});
    std::cout << cmp.render() << "\n";

    // The drift monitor's end-to-end self-test: with the measured
    // means as the prediction and a 3x slowdown injected into one
    // node's samples, exactly that node must flag.
    const SelfTest selftest = driftSelfTest(unfused);
    std::cout << "drift self-test: injected 3x into "
              << (selftest.node_id.empty() ? "(none)"
                                           : selftest.node_id)
              << "  ->  flagged " << selftest.flagged_count
              << " node(s), ratio "
              << util::fixed(selftest.flagged_ratio, 2) << "  ["
              << (selftest.pass ? "PASS" : "FAIL") << "]\n\n";

    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    out << "{\n";
    bench::writeHostJson(out, util::configuredThreads());
    out << "  \"config\": \"" << m.name << "\",\n"
        << "  \"batch_size\": " << kBatch << ",\n"
        << "  \"measured_iterations\": " << unfused.measured_iters
        << ",\n"
        << "  \"drift\": {\"selftest_pass\": "
        << (selftest.pass ? "true" : "false")
        << ", \"selftest_node\": \"" << selftest.node_id
        << "\", \"steps_observed\": " << unfused.drift.steps_observed
        << ", \"stragglers\": " << unfused.drift.stragglers.size()
        << ", \"worst_abs_log_ratio\": "
        << unfused.drift.worst_abs_log_ratio << "},\n"
        << "  \"iteration_seconds\": ";
    emitIterationSeconds(out, unfused);
    out << ",\n  \"fused_iteration_seconds\": ";
    emitIterationSeconds(out, fused);
    out << ",\n  \"cached\": {\"hot_tier_budget_bytes\": "
        << hot_tier_budget << ", \"plan_hot_tier_bytes\": "
        << cached.analytical.plan().hot_tier_bytes
        << ", \"summary_hot_tier_bytes\": "
        << cached.analytical.workSummary().emb_hot_tier_bytes
        << ", \"summary_hot_hit_fraction\": "
        << cached.analytical.workSummary().emb_hot_hit_fraction
        << ", \"predicted_hit_rate\": " << cached.predicted_hit_rate
        << ", \"measured_hit_rate\": " << cached.measured_hit_rate
        << ", \"hit_rate_drift\": " << hit_drift
        << ",\n    \"iteration_seconds\": ";
    emitIterationSeconds(out, cached);
    out << "},\n  \"nodes\": [\n";
    emitNodes(out, unfused);
    out << "  ],\n  \"fused_nodes\": [\n";
    emitNodes(out, fused);
    out << "  ],\n  \"cached_nodes\": [\n";
    emitNodes(out, cached);
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n\n";

    std::cout <<
        "Reading: compute rows (gemms, interaction, optimizer) line up "
        "across all three\ncolumns; comm rows exist only for the "
        "predicted/simulated distributed system.\nThe measured embedding "
        "rows run the real pooled lookups, which the cost model\nfolds "
        "into its per-lookup trainer overhead. In the fused table the "
        "per-table\nemb.* rows collapse into one emb.grouped.* row per "
        "device and the gemm and\ninteraction rows lose their forward "
        "and backward epilogue traffic (bias +\nReLU stores, bias-grad "
        "sumRows, dReLU mask, the interaction flatten buffer),\nso the "
        "fused iteration is faster in all three columns.\n";
    return 0;
}
