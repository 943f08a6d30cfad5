/**
 * @file
 * train_mlp and train_emb: one fixed-size train::trainSingleThread job
 * (materialized examples, Adagrad, then eval), repeated until the run's
 * time is spent.
 *  - train_mlp is an M2-like replica: 504 dense features, MLPs 512-1024
 *    wide, 13 small single-lookup tables, fuse_graph on. GEMMs do most
 *    of the step.
 *  - train_emb is an M3-like replica: 32 tables with tens of Zipf-skewed
 *    pooled lookups each, small MLPs, fuse_graph off. Embedding
 *    forward/backward and sparse Adagrad do most of the step.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "bench.h"
#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/dlrm.h"
#include "nn/optimizer.h"
#include "obs/pool_metrics.h"
#include "train/step_runner.h"
#include "train/trainer.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace recsim;

namespace {

/** One fixed training job: every input except the seed is a constant. */
struct TrainJob
{
    model::DlrmConfig model;
    train::TrainConfig train;
    /** Materialized examples, the held-out split included. */
    std::size_t examples = 0;
    std::size_t eval_examples = 0;
};

data::SparseFeatureSpec
table(std::size_t i, uint64_t hash_size, double mean_length,
      uint64_t truncation)
{
    data::SparseFeatureSpec spec;
    spec.name = util::format("t{}", i);
    spec.hash_size = hash_size;
    spec.mean_length = mean_length;
    spec.truncation = truncation;
    spec.zipf_exponent = 1.05;
    // No hash collisions, so the teacher's per-ID scores are learnable
    // and the fixed job beats the base rate on every seed (as does the
    // concatenation interaction both replicas use).
    spec.raw_id_space = hash_size;
    return spec;
}

TrainJob
mlpJob()
{
    TrainJob job;
    model::DlrmConfig& m = job.model;
    // M2_prod's feature counts (504 dense, 13 sparse) with 512-1024
    // wide MLPs and small single-lookup tables.
    m.name = "perfbench_m2_like";
    m.num_dense = 504;
    m.emb_dim = 64;
    m.bottom_mlp = {1024, 64};
    m.top_mlp = {1024, 512, 512};
    m.interaction = nn::InteractionKind::Concat;
    for (std::size_t i = 0; i < 13; ++i)
        m.sparse.push_back(table(i, 500, 1.0, 4));
    job.train.batch_size = 128;
    job.train.learning_rate = 0.005f;
    job.train.fuse_graph = true;
    job.examples = 16384 + 4096;
    job.eval_examples = 4096;
    return job;
}

TrainJob
embJob()
{
    TrainJob job;
    model::DlrmConfig& m = job.model;
    m.name = "perfbench_m3_like";
    m.num_dense = 64;
    m.emb_dim = 32;
    m.bottom_mlp = {128, 32};
    m.top_mlp = {128, 64};
    m.interaction = nn::InteractionKind::Concat;
    // Table sizes 4k-32k rows and mean lengths 12-36 (24 on average),
    // so the tables total ~60 MB and peak RSS stays well under 1 GB.
    for (std::size_t i = 0; i < 32; ++i)
        m.sparse.push_back(table(i, uint64_t{4000} << (i % 4),
                                 12.0 + 6.0 * static_cast<double>(i % 5),
                                 64));
    job.train.batch_size = 256;
    job.train.learning_rate = 0.01f;
    job.train.fuse_graph = false;
    job.examples = 16384 + 4096;
    job.eval_examples = 4096;
    return job;
}

std::unique_ptr<data::SyntheticCtrDataset>
makeDataset(const TrainJob& job, uint64_t seed)
{
    data::DatasetConfig cfg;
    cfg.num_dense = job.model.num_dense;
    cfg.sparse = job.model.sparse;
    cfg.seed = seed;
    auto dataset = std::make_unique<data::SyntheticCtrDataset>(cfg);
    {
        Scoped span("data.materialize");
        dataset->materialize(job.examples);
    }
    return dataset;
}

graph::StepGraph
buildGraph(const TrainJob& job)
{
    Scoped span("graph.build");
    graph::StepGraph graph = graph::buildModelStepGraph(job.model);
    if (job.train.fuse_graph)
        graph::fusePass(graph);
    return graph;
}

/** What a replayed stretch of trainer steps observed. */
struct Stretch
{
    std::vector<double> losses;
    double seconds = 0.0;
    std::size_t examples = 0;
    double lookups = 0.0;
    double unique_rows = 0.0;
    obs::PoolSnapshot pool;
    double eval_ne = 0.0;
};

/**
 * Replay @p steps trainer steps through the public calls
 * trainSingleThread makes (Dlrm construction, epochBatch,
 * GraphExecutor::runStep, Dlrm::step(Adagrad&)), then evaluate when
 * @p evaluate is set. Spans land in the recorder when it is on.
 */
Stretch
replaySteps(const TrainJob& job, data::SyntheticCtrDataset& dataset,
            std::size_t steps, bool evaluate)
{
    Stretch out;
    const double t0 = nowSeconds();
    Scoped root("train.stretch");
    std::unique_ptr<model::Dlrm> model;
    {
        Scoped span("model.init");
        model = std::make_unique<model::Dlrm>(job.model,
                                              job.train.model_seed);
    }
    const graph::StepGraph graph = buildGraph(job);
    const train::GraphExecutor executor(graph);
    nn::Adagrad adagrad(job.train.learning_rate);
    const std::size_t batch_size = job.train.batch_size;
    const obs::PoolSnapshot pool_before = obs::snapshotThreadPool();
    for (std::size_t s = 0; s < steps; ++s) {
        data::MiniBatch batch;
        {
            Scoped span("data.epochBatch");
            batch = dataset.epochBatch(s * batch_size, batch_size);
        }
        {
            Scoped span("train.runStep");
            out.losses.push_back(executor.runStep(*model, batch));
        }
        out.lookups += static_cast<double>(batch.totalLookups());
        for (const nn::SparseGrad& g : model->sparseGrads())
            out.unique_rows += static_cast<double>(g.rows.size());
        {
            Scoped span("nn.step");
            model->step(adagrad);
        }
        out.examples += batch_size;
    }
    out.pool = obs::poolDelta(pool_before, obs::snapshotThreadPool());
    if (evaluate) {
        train::TrainResult eval;
        Scoped span("train.evaluateModel");
        train::evaluateModel(*model, dataset, job.eval_examples, eval);
        out.eval_ne = eval.eval_ne;
    }
    out.seconds = nowSeconds() - t0;
    return out;
}

bool
bitwiseEqual(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kPrefixSteps = 4;
constexpr std::size_t kTracedSteps = 24;

void
tracedRun(const TrainJob& job, data::SyntheticCtrDataset& dataset,
          const graph::WorkSummary& work, Result& result)
{
    // Untraced and traced replays of the same stretch, in the order
    // untraced, traced, traced, untraced after a warm-up, so warm-up and
    // drift cancel in the overhead ratio.
    spans().disable();
    replaySteps(job, dataset, kPrefixSteps, false);
    const Stretch plain = replaySteps(job, dataset, kTracedSteps, true);
    spans().enable();
    const Stretch traced = replaySteps(job, dataset, kTracedSteps, true);
    const Stretch traced2 = replaySteps(job, dataset, kTracedSteps, true);
    spans().disable();
    const Stretch plain2 = replaySteps(job, dataset, kTracedSteps, true);
    result.check(bitwiseEqual(plain.losses, traced.losses) &&
                     plain.eval_ne == traced.eval_ne,
                 "traced and untraced stretches give identical losses "
                 "and eval_ne");
    result.attempted = traced.losses.size() + traced2.losses.size();

    const double steps = static_cast<double>(kTracedSteps);
    // Span totals cover both traced stretches.
    const double span_steps = 2.0 * steps;
    const double flops_per_example =
        work.mlp_flops + work.interaction_flops;
    const SpanRecorder& rec = spans();
    const double fwd_bwd_s = rec.total("train.runStep") / span_steps;
    // Every stretch trains the same examples, so the throughput ratio
    // is the inverse ratio of their times.
    const double overhead = (plain.seconds + plain2.seconds) /
        (traced.seconds + traced2.seconds);

    addCommonLayerMetrics(result, {job.model}, job.train.fuse_graph,
                          overhead, traced.pool, steps);
    result.addExtra("data.materialize_s", rec.mean("data.materialize"),
                    "s");
    result.addExtra("data.batch_ms",
                    1e3 * rec.total("data.epochBatch") / span_steps, "ms");
    result.addExtra("model.init_s", rec.mean("model.init"), "s");
    result.addExtra("train.fwd_bwd_ms", 1e3 * fwd_bwd_s, "ms");
    result.addExtra("nn.optimizer_ms",
                    1e3 * rec.total("nn.step") / span_steps, "ms");
    result.addExtra("train.eval_ms", 1e3 * rec.mean("train.evaluateModel"),
                    "ms");
    // A computed rate: graph::summarize forward FLOPs x3 (forward plus
    // the two backward GEMMs) per example, over the measured step time.
    result.addExtra("tensor.gflop_per_s",
                    3.0 * flops_per_example *
                        static_cast<double>(job.train.batch_size) /
                        fwd_bwd_s * 1e-9,
                    "GFLOP/s");
    result.addExtra("nn.emb.lookups_per_step", traced.lookups / steps,
                    "count");
    result.addExtra("nn.emb.unique_share",
                    traced.lookups > 0.0
                        ? traced.unique_rows / traced.lookups
                        : 0.0,
                    "ratio");
    result.addExtra("util.pool.jobs_per_step",
                    static_cast<double>(traced.pool.jobs) / steps,
                    "count");
    result.addExtra("util.pool.tasks_per_step",
                    static_cast<double>(traced.pool.tasks) / steps,
                    "count");
    result.addExtra("util.pool.idle_ms_per_step",
                    1e-6 * static_cast<double>(traced.pool.idle_ns) /
                        steps,
                    "ms");
    const double step_ms = 1e3 * traced.seconds / steps;
    std::cout << "traced stretch: " << kTracedSteps << " steps of "
              << job.train.batch_size << ", " << step_ms
              << " ms per step incl. init and eval; tracing overhead "
              << overhead << " (traced/untraced throughput)\n";
}

} // namespace

Result
runTrain(const Options& options, bool mlp_heavy)
{
    Result result;
    util::globalThreadPool().resize(kPoolThreads);
    printHostBlock(options, kPoolThreads);
    const TrainJob job = mlp_heavy ? mlpJob() : embJob();
    const graph::WorkSummary work =
        graph::summarize(graph::buildModelStepGraph(job.model));
    std::cout << "model " << job.model.summary() << "\n"
              << "job " << job.examples - job.eval_examples
              << " training examples, batch " << job.train.batch_size
              << ", eval " << job.eval_examples << ", fuse_graph "
              << job.train.fuse_graph << ", "
              << (work.mlp_flops + work.interaction_flops) * 1e-6
              << " MFLOP and " << work.embedding_lookups
              << " lookups per example\n";

    if (options.trace)
        spans().enable();
    // Set-up: materialize the dataset several times and report the
    // median; the last copy is the one the job trains on.
    std::unique_ptr<data::SyntheticCtrDataset> dataset;
    std::vector<double> setup_s;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        dataset.reset();
        const double t0 = nowSeconds();
        dataset = makeDataset(job, options.seed);
        setup_s.push_back(nowSeconds() - t0);
    }
    spans().disable();

    if (options.trace) {
        tracedRun(job, *dataset, work, result);
        return result;
    }

    // The executor's determinism contract: a short prefix of steps
    // gives bitwise-identical losses at pool 1 and at pool 2.
    util::globalThreadPool().resize(1);
    const Stretch serial = replaySteps(job, *dataset, kPrefixSteps, false);
    util::globalThreadPool().resize(kPoolThreads);
    const Stretch pooled = replaySteps(job, *dataset, kPrefixSteps, false);
    result.check(bitwiseEqual(serial.losses, pooled.losses),
                 "first steps give bitwise-identical losses at pool 1 "
                 "and pool 2");

    // Timed phase: repeat the fixed job until the run's time is spent.
    train::TrainConfig config = job.train;
    config.eval_every = 1;
    double busy_s = 0.0;
    std::size_t calls = 0, steps = 0, examples = 0, nonfinite = 0;
    train::TrainResult first;
    std::vector<double> job_rates;
    bool repeatable = true;
    const double start = nowSeconds();
    do {
        const double t0 = nowSeconds();
        const train::TrainResult r = train::trainSingleThread(
            job.model, *dataset, config, job.eval_examples);
        const double job_s = nowSeconds() - t0;
        busy_s += job_s;
        job_rates.push_back(
            static_cast<double>(r.steps * config.batch_size) / job_s);
        steps += r.steps;
        examples += r.steps * config.batch_size;
        for (const auto& point : r.loss_curve)
            nonfinite += !std::isfinite(point.second);
        if (calls == 0)
            first = r;
        else
            repeatable = repeatable &&
                std::memcmp(&r.eval_ne, &first.eval_ne,
                            sizeof(double)) == 0;
        ++calls;
    } while (nowSeconds() - start < options.seconds);

    result.check(std::isfinite(first.eval_ne) &&
                     std::isfinite(first.final_train_loss),
                 "eval_ne and the final training loss are finite");
    result.check(first.eval_ne < 1.0,
                 "eval_ne < 1 (the model beats the base-rate predictor)");
    result.check(first.loss_curve.size() == first.steps,
                 "loss_curve has one entry per step (eval_every = 1)");
    result.check(repeatable,
                 "every repeat of the job gives the same eval_ne");
    result.attempted = steps;
    result.failed = nonfinite;

    // The slowest job sets the reported rate: on a shared host whole
    // jobs run in faster or slower speed regimes, and the slow regime
    // is the steady one (see NOTES.md).
    result.add("throughput_per_s",
               *std::min_element(job_rates.begin(), job_rates.end()),
               "1/s");
    result.add("setup_s", median(setup_s), "s");
    result.add("peak_rss_mb", peakRssMb(), "MB");
    result.addExtra("eval_ne", first.eval_ne, "ratio");
    result.addExtra("failed_share",
                    static_cast<double>(nonfinite) /
                        static_cast<double>(steps),
                    "fraction");
    result.addExtra("final_train_loss", first.final_train_loss, "nats");
    result.addExtra("mean_throughput_per_s",
                    static_cast<double>(examples) / busy_s, "1/s");
    result.addExtra("jobs_run", static_cast<double>(calls), "count");
    return result;
}

} // namespace perfbench
