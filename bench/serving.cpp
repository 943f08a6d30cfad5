/**
 * @file
 * Serving benchmark: QPS-vs-SLA curves across dynamic-batching
 * policies. For each Table II-derived serving replica the harness
 * calibrates a reference service time, then replays deterministic
 * diurnal-Poisson arrival traces (serve::LoadGenerator) through the
 * batching scheduler and the forward-only inference engine at offered
 * loads from well below to above the engine's capacity, reporting
 * achieved QPS, p50/p95/p99 completion latency and the SLA violation
 * rate per (model, policy, offered-QPS) point. A bitwise gate rides
 * along: the serving forward pass must match the training forward
 * pass bit for bit at pool sizes 1/2/8. Emits BENCH_serving.json for
 * the CI regression gate.
 *
 * Usage: serving [--json PATH] [--quick] [--trace out.json]
 */
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/dataset.h"
#include "model/dlrm.h"
#include "serve/engine.h"
#include "serve/load_gen.h"
#include "serve/scheduler.h"
#include "util/logging.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

using namespace recsim;

namespace {

/**
 * Shrink a Table II production config to a servable replica: the
 * sparse-feature structure (table count, lengths, skew) survives, the
 * parameter volume drops to megabytes so the model instantiates
 * everywhere. Mirrors DlrmConfig::tinyReplica but keeps the
 * production feature mix, which is what drives per-model load shapes.
 */
model::DlrmConfig
servingReplica(model::DlrmConfig cfg)
{
    cfg.name += "_serve";
    cfg.emb_dim = 16;
    cfg.bottom_mlp = {64, 32};
    cfg.top_mlp = {64, 32};
    for (auto& f : cfg.sparse) {
        f.hash_size = std::min<uint64_t>(f.hash_size, 4096);
        f.raw_id_space = 0;
        f.truncation = 8;
        f.dim_override = 0;
    }
    return cfg;
}

data::DatasetConfig
datasetFor(const model::DlrmConfig& m)
{
    data::DatasetConfig cfg;
    cfg.num_dense = m.num_dense;
    cfg.sparse = m.sparse;
    cfg.seed = 42;
    return cfg;
}

/** Best-of reference service time of one mean-sized batch. */
double
referenceServiceSeconds(serve::InferenceEngine& engine,
                        const data::MiniBatch& batch, int iters)
{
    engine.scoreBatch(batch); // warmup
    double best = engine.scoreBatch(batch);
    for (int i = 1; i < iters; ++i)
        best = std::min(best, engine.scoreBatch(batch));
    return best;
}

/** Serving logits vs training forward, memcmp at 1/2/8 threads. */
bool
forwardBitwiseEqual(const model::DlrmConfig& cfg,
                    serve::InferenceEngine& engine)
{
    data::SyntheticCtrDataset ds(datasetFor(cfg));
    const auto batch = ds.nextBatch(64);
    model::Dlrm ref(cfg, 1);
    tensor::Tensor ref_logits;
    ref.forward(batch, ref_logits);
    auto& pool = util::globalThreadPool();
    bool equal = true;
    for (const std::size_t t : {std::size_t(1), std::size_t(2),
                                std::size_t(8)}) {
        pool.resize(t);
        engine.scoreBatch(batch);
        const auto& logits = engine.logits();
        if (logits.size() != ref_logits.size() ||
            std::memcmp(logits.data(), ref_logits.data(),
                        logits.size() * sizeof(float)) != 0)
            equal = false;
    }
    pool.resize(1);
    return equal;
}

struct Policy
{
    std::string name;
    serve::BatchingConfig batching;
};

struct Point
{
    double offered_qps = 0.0;
    serve::ServeReport report;
};

struct PolicyCurve
{
    Policy policy;
    std::vector<Point> points;
};

struct ModelResult
{
    std::string name;
    std::size_t sparse_features = 0;
    double mean_candidates = 0.0;
    double service_s_ref = 0.0;
    double capacity_qps = 0.0;
    double sla_s = 0.0;
    bool forward_bitwise_equal = false;
    std::vector<PolicyCurve> curves;
};

} // namespace

int
main(int argc, char** argv)
{
    bench::TraceSession trace(argc, argv);
    std::string json_path = "BENCH_serving.json";
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else if (arg == "--quick")
            quick = true;
    }
    const std::size_t queries_per_point = quick ? 120 : 400;
    const int calib_iters = quick ? 3 : 8;

    bench::banner(
        "Serving", "DeepRecSys-style at-scale inference",
        "Load generator -> dynamic batching -> forward-only StepGraph "
        "engine. QPS-vs-SLA\ncurves per batching policy; serving "
        "scores stay bitwise-equal to the training\nforward pass "
        "(gated in CI).");

    const std::vector<model::DlrmConfig> models = {
        servingReplica(model::DlrmConfig::m1Prod()),
        servingReplica(model::DlrmConfig::m2Prod()),
    };
    const std::vector<double> load_factors =
        quick ? std::vector<double>{0.5, 1.5}
              : std::vector<double>{0.25, 0.5, 1.0, 1.5};

    auto& pool = util::globalThreadPool();
    std::vector<ModelResult> results;
    for (const auto& cfg : models) {
        ModelResult mr;
        mr.name = cfg.name;
        mr.sparse_features = cfg.numSparse();
        serve::InferenceEngine engine(cfg, 1);
        mr.forward_bitwise_equal = forwardBitwiseEqual(cfg, engine);

        // Calibrate: one mean-sized query batch, best-of wall time.
        pool.resize(4);
        const auto probe =
            serve::loadForModel(cfg, /*mean_qps=*/1.0, /*sla_s=*/1.0);
        mr.mean_candidates = probe.mean_candidates;
        data::SyntheticCtrDataset calib_ds(datasetFor(cfg));
        const auto calib_batch = calib_ds.nextBatch(
            static_cast<std::size_t>(probe.mean_candidates));
        mr.service_s_ref =
            referenceServiceSeconds(engine, calib_batch, calib_iters);
        mr.capacity_qps = 1.0 / mr.service_s_ref;
        // SLA: generous at low load, violated under saturation.
        mr.sla_s = 10.0 * mr.service_s_ref;

        std::cout << util::format(
            "{}: {} tables, {} candidates/query, ref service {} us "
            "-> capacity ~{} qps, SLA {} ms, forward bitwise {}\n",
            mr.name, mr.sparse_features,
            util::fixed(mr.mean_candidates, 0),
            util::fixed(mr.service_s_ref * 1e6, 0),
            util::fixed(mr.capacity_qps, 0), util::fixed(mr.sla_s * 1e3, 2),
            mr.forward_bitwise_equal ? "EQUAL" : "DIFFERS");

        const std::vector<Policy> policies = {
            {"no_batch", {1, 1u << 20, 0.0}},
            {"greedy", {16, 1u << 20, 0.0}},
            {"max_wait", {16, 1u << 20, 2.0 * mr.service_s_ref}},
        };
        for (const auto& policy : policies) {
            PolicyCurve curve;
            curve.policy = policy;
            for (const double factor : load_factors) {
                const double offered = factor * mr.capacity_qps;
                auto lg_cfg = serve::loadForModel(cfg, offered, mr.sla_s);
                // One whole diurnal period per trace keeps the
                // empirical mean rate at the offered QPS while the
                // peak runs 1.5x hotter than the trough.
                const double duration =
                    static_cast<double>(queries_per_point) / offered;
                lg_cfg.diurnal_amplitude = 0.5;
                lg_cfg.diurnal_period_s = duration;
                serve::LoadGenerator gen(lg_cfg);
                const auto queries = gen.generate(duration);
                if (queries.empty())
                    continue;

                serve::ReplayConfig rc;
                rc.batching = policy.batching;
                Point pt;
                pt.offered_qps = offered;
                pt.report = engine.replay(queries, rc);
                curve.points.push_back(pt);
                std::cout << util::format(
                    "  {} @ {} qps ({}x): achieved {}  p50 {}  p95 {} "
                    " p99 {} ms  viol {}\n",
                    util::padRight(policy.name, 9),
                    util::fixed(offered, 0), util::fixed(factor, 2),
                    util::fixed(pt.report.achieved_qps, 0),
                    util::fixed(pt.report.latency.p50 * 1e3, 2),
                    util::fixed(pt.report.latency.p95 * 1e3, 2),
                    util::fixed(pt.report.latency.p99 * 1e3, 2),
                    bench::pct(pt.report.sla_violation_rate));
            }
            mr.curves.push_back(std::move(curve));
        }
        pool.resize(1);
        results.push_back(std::move(mr));
        std::cout << "\n";
    }

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
    out << "  \"queries_per_point\": " << queries_per_point << ",\n";
    out << "  \"models\": [\n";
    for (std::size_t m = 0; m < results.size(); ++m) {
        const auto& mr = results[m];
        out << "    {\n";
        out << "      \"name\": \"" << mr.name << "\",\n";
        out << "      \"sparse_features\": " << mr.sparse_features
            << ",\n";
        out << "      \"mean_candidates\": " << mr.mean_candidates
            << ",\n";
        out << "      \"service_s_ref\": " << mr.service_s_ref << ",\n";
        out << "      \"capacity_qps\": " << mr.capacity_qps << ",\n";
        out << "      \"sla_s\": " << mr.sla_s << ",\n";
        out << "      \"forward_bitwise_equal\": "
            << (mr.forward_bitwise_equal ? "true" : "false") << ",\n";
        out << "      \"policies\": [\n";
        for (std::size_t c = 0; c < mr.curves.size(); ++c) {
            const auto& curve = mr.curves[c];
            out << "        {\"policy\": \"" << curve.policy.name
                << "\", \"max_batch_queries\": "
                << curve.policy.batching.max_batch_queries
                << ", \"max_wait_s\": "
                << curve.policy.batching.max_wait_s
                << ", \"points\": [\n";
            for (std::size_t p = 0; p < curve.points.size(); ++p) {
                const auto& pt = curve.points[p];
                const auto& r = pt.report;
                out << "          {\"offered_qps\": " << pt.offered_qps
                    << ", \"achieved_qps\": " << r.achieved_qps
                    << ", \"served\": " << r.served
                    << ", \"evicted\": " << r.evicted
                    << ", \"p50_s\": " << r.latency.p50
                    << ", \"p95_s\": " << r.latency.p95
                    << ", \"p99_s\": " << r.latency.p99
                    << ", \"sla_violation_rate\": "
                    << r.sla_violation_rate
                    << ", \"mean_batch_queries\": "
                    << r.mean_batch_queries << ", \"utilization\": "
                    << (r.makespan_s > 0.0 ? r.busy_s / r.makespan_s
                                           : 0.0)
                    << "}" << (p + 1 < curve.points.size() ? "," : "")
                    << "\n";
            }
            out << "        ]}"
                << (c + 1 < mr.curves.size() ? "," : "") << "\n";
        }
        out << "      ]\n";
        out << "    }" << (m + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";

    bool gate_ok = true;
    for (const auto& mr : results)
        gate_ok = gate_ok && mr.forward_bitwise_equal;
    return gate_ok ? 0 : 1;
}
