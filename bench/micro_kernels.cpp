/**
 * @file
 * Kernel benchmark with a serial-vs-parallel regression gate. Measures
 * the library's hot compute kernels — GEMM variants, elementwise ops,
 * embedding-bag forward/backward and sparse updates, the quantized
 * dequant path and the full DLRM step — once with a 1-thread pool and
 * once with N threads, and emits BENCH_kernels.json (GFLOP/s for GEMMs,
 * elem/s, lookups/s, rows/s or examples/s elsewhere) for CI to diff and
 * gate on.
 *
 * A naive triple-loop GEMM (the pre-thread-pool kernel, zero-skip
 * branch included) is measured alongside as the historical baseline,
 * so the JSON always carries the speedup of the blocked kernel over
 * the code it replaced.
 *
 * Usage: micro_kernels [--json PATH] [--threads N] [--quick]
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
#include "data/dataset.h"
#include "model/dlrm.h"
#include "nn/embedding_bag.h"
#include "nn/interaction.h"
#include "nn/optimizer.h"
#include "nn/quantized_embedding.h"
#include "obs/metrics.h"
#include "obs/pool_metrics.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/logging.h"
#include "util/random.h"
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

/**
 * Best-iteration throughput of fn: ops_per_iter / min(iteration time),
 * run for at least min_seconds (after one warmup call).
 */
template <typename F>
double
measureOpsPerSec(F&& fn, double ops_per_iter, double min_seconds)
{
    fn();  // warmup: faults pages, fills workspaces
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
    return ops_per_iter / best;
}

/** The pre-change GEMM: single-thread ikj with the zero-skip branch. */
void
naiveMatmul(const tensor::Tensor& a, const tensor::Tensor& b,
            tensor::Tensor& out)
{
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    out.resize(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        const float* arow = a.row(i);
        float* orow = out.row(i);
        for (std::size_t p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f)
                continue;
            const float* brow = b.row(p);
            for (std::size_t j = 0; j < n; ++j)
                orow[j] += av * brow[j];
        }
    }
}

struct KernelResult
{
    std::string name;
    std::string metric;
    double serial = 0.0;    ///< Throughput with a 1-thread pool.
    double parallel = 0.0;  ///< Throughput with the N-thread pool.
};

struct Harness
{
    std::size_t threads = 1;
    double min_seconds = 0.25;
    std::vector<KernelResult> results;

    /** Measure @p fn serial then parallel and record one row. */
    template <typename F>
    void run(const std::string& name, const std::string& metric,
             double ops_per_iter, F&& fn)
    {
        KernelResult r;
        r.name = name;
        r.metric = metric;
        util::globalThreadPool().resize(1);
        r.serial = measureOpsPerSec(fn, ops_per_iter, min_seconds);
        util::globalThreadPool().resize(threads);
        r.parallel = measureOpsPerSec(fn, ops_per_iter, min_seconds);
        util::globalThreadPool().resize(1);
        results.push_back(r);
        std::cout << util::format(
            "{} [{}]  serial {}  {}-thread {}  speedup {}\n",
            name, metric, r.serial, threads, r.parallel,
            r.serial > 0.0 ? r.parallel / r.serial : 0.0);
    }
};

nn::SparseBatch
makeBatch(std::size_t batch, std::size_t lookups, uint64_t id_space,
          util::Rng& rng)
{
    util::ZipfSampler zipf(id_space, 1.05);
    nn::SparseBatch out;
    out.offsets.push_back(0);
    for (std::size_t ex = 0; ex < batch; ++ex) {
        for (std::size_t k = 0; k < lookups; ++k)
            out.indices.push_back(zipf(rng));
        out.offsets.push_back(out.indices.size());
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::TraceSession trace(argc, argv);
    std::string json_path = "BENCH_kernels.json";
    std::size_t threads = util::configuredThreads();
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else if (arg == "--threads" && i + 1 < argc)
            threads = static_cast<std::size_t>(std::stoul(argv[++i]));
        else if (arg.rfind("--threads=", 0) == 0)
            threads = static_cast<std::size_t>(
                std::stoul(arg.substr(10)));
        else if (arg == "--quick")
            quick = true;
    }
    threads = std::max<std::size_t>(threads, 1);

    Harness h;
    h.threads = threads;
    h.min_seconds = quick ? 0.05 : 0.25;

    util::Rng rng(1);
    std::cout << util::format(
        "micro_kernels: {} threads (hardware_concurrency {}), "
        "simd kernels: {}\n\n",
        threads,
        static_cast<unsigned>(std::thread::hardware_concurrency()),
        tensor::simd::activeKernels());

    // --- GEMM family ---------------------------------------------------
    for (const std::size_t n : {std::size_t(128), std::size_t(256),
                                std::size_t(512)}) {
        if (quick && n > 256)
            continue;
        tensor::Tensor a(n, n), b(n, n), out;
        a.fillNormal(rng, 1.0f);
        b.fillNormal(rng, 1.0f);
        const double flops = 2.0 * static_cast<double>(n) * n * n;

        // Historical baseline: the pre-pool kernel, serial only.
        KernelResult naive;
        naive.name = util::format("gemm_naive_{}", n);
        naive.metric = "GFLOP/s";
        naive.serial = measureOpsPerSec(
            [&] { naiveMatmul(a, b, out); }, flops, h.min_seconds);
        naive.parallel = naive.serial;
        h.results.push_back(naive);
        std::cout << util::format("{} [GFLOP/s]  serial {}\n",
                                  naive.name, naive.serial);

        h.run(util::format("gemm_{}", n), "GFLOP/s", flops,
              [&] { tensor::matmul(a, b, out); });
        h.run(util::format("gemm_transA_{}", n), "GFLOP/s", flops,
              [&] { tensor::matmulTransA(a, b, out); });
        h.run(util::format("gemm_transB_{}", n), "GFLOP/s", flops,
              [&] { tensor::matmulTransB(a, b, out); });

        // Epilogue fusion: bias + relu folded into the GEMM's final
        // k-block store, vs the three-pass pipeline it replaces. Same
        // FLOP count on both rows so the delta is pure memory traffic.
        tensor::Tensor bias(n);
        bias.fillNormal(rng, 1.0f);
        h.run(util::format("gemm_bias_relu_fused_{}", n), "GFLOP/s",
              flops,
              [&] { tensor::matmulBiasAct(a, b, bias, true, out); });
        h.run(util::format("gemm_bias_relu_unfused_{}", n), "GFLOP/s",
              flops, [&] {
                  tensor::matmul(a, b, out);
                  tensor::addBiasRows(out, bias);
                  tensor::reluInPlace(out);
              });

        // Backward fusion: one layer's full grad step. Fused row: the
        // bias grad rides the dW GEMM sweep and the dReLU mask the dx
        // GEMM store; unfused row: the same work as four passes. Both
        // rows count the two GEMMs' FLOPs so the delta is, again, the
        // saved epilogue memory traffic.
        tensor::Tensor xin(n, n), dy(n, n), mask(n, n);
        xin.fillNormal(rng, 1.0f);
        dy.fillNormal(rng, 1.0f);
        mask.fillNormal(rng, 1.0f);
        tensor::Tensor dw, db, dx;
        const double bwd_flops = 2.0 * flops;
        h.run(util::format("gemm_dgrad_fused_{}", n), "GFLOP/s",
              bwd_flops, [&] {
                  tensor::matmulTransABiasGrad(xin, dy, dw, db);
                  tensor::matmulTransBMask(dy, b, &mask, dx);
              });
        h.run(util::format("gemm_dgrad_unfused_{}", n), "GFLOP/s",
              bwd_flops, [&] {
                  tensor::matmulTransA(xin, dy, dw);
                  tensor::sumRows(dy, db);
                  tensor::matmulTransB(dy, b, dx);
                  tensor::reluBackward(mask, dx, dx);
              });
    }

    // --- DLRM layer GEMMs ----------------------------------------------
    // The three GEMM kinds of one fused training step of an M2-like
    // top_mlp.l0 (batch 128, 896 -> 1024): forward bias+ReLU, the
    // weight grad with the bias grad riding along, and the dReLU-masked
    // input grad. The weight (3.5 MiB) is larger than a core's L2, so
    // these rows measure the cache blocking, not just the microkernel;
    // CI gates their serial rate relative to gemm_256.
    {
        const std::size_t batch = 128, in = 896, out = 1024;
        tensor::Tensor x(batch, in), w(in, out), bias(out), y;
        tensor::Tensor dy(batch, out), mask(batch, in), dw, db, dx;
        x.fillNormal(rng, 1.0f);
        w.fillNormal(rng, 1.0f);
        bias.fillNormal(rng, 1.0f);
        dy.fillNormal(rng, 1.0f);
        mask.fillNormal(rng, 1.0f);
        const double flops = 2.0 * static_cast<double>(batch) * in * out;
        h.run("gemm_dlrm_fwd_bias_relu", "GFLOP/s", flops,
              [&] { tensor::matmulBiasAct(x, w, bias, true, y); });
        h.run("gemm_dlrm_dw_bias_grad", "GFLOP/s", flops,
              [&] { tensor::matmulTransABiasGrad(x, dy, dw, db); });
        h.run("gemm_dlrm_dx_mask", "GFLOP/s", flops,
              [&] { tensor::matmulTransBMask(dy, w, &mask, dx); });
    }

    // --- Interaction backward: flatten fusion --------------------------
    // The top-MLP layer-0 input-grad GEMM writing the interaction
    // backward's destinations directly (segmented outputs) vs the
    // monolithic GEMM into a flatten buffer that a second pass splits.
    {
        const std::size_t batch = quick ? 128 : 512;
        const std::size_t d = 64, sparse = 8;
        const std::size_t width =
            nn::DotInteraction::outWidth(sparse, d);
        const std::size_t hidden = 256;
        tensor::Tensor grad(batch, hidden), w(hidden, width);
        grad.fillNormal(rng, 1.0f);
        w.fillNormal(rng, 1.0f);
        const double flops = 2.0 * static_cast<double>(batch) *
            hidden * width;
        tensor::Tensor wt(width, hidden);
        for (std::size_t i = 0; i < hidden; ++i)
            for (std::size_t j = 0; j < width; ++j)
                wt.at(j, i) = w.at(i, j);
        tensor::Tensor d_dense, d_pairs, flat;
        h.run("interaction_bwd_flatten_fused", "GFLOP/s", flops, [&] {
            std::vector<tensor::GemmOutSegment> segs = {
                {&d_dense, d, /*zero_bias=*/true},
                {&d_pairs, width - d, false}};
            tensor::matmulTransBSegmented(grad, wt, segs);
        });
        h.run("interaction_bwd_flatten_unfused", "GFLOP/s", flops,
              [&] {
                  tensor::matmulTransB(grad, wt, flat);
                  d_dense.resize(batch, d);
                  d_pairs.resize(batch, width - d);
                  for (std::size_t ex = 0; ex < batch; ++ex) {
                      const float* frow = flat.row(ex);
                      std::memcpy(d_dense.row(ex), frow,
                                  d * sizeof(float));
                      std::memcpy(d_pairs.row(ex), frow + d,
                                  (width - d) * sizeof(float));
                  }
              });
    }

    // --- Interaction forward: pairwise dots ---------------------------
    // DotInteraction::forward at the serve replica's shape: a 312-item
    // batch of F = 31 vectors (the dense projection and 30 pooled
    // embeddings) of d = 64. CI gates its serial rate relative to
    // gemm_256.
    {
        const std::size_t batch = 312, d = 64, sparse = 30;
        tensor::Tensor dense(batch, d), out;
        dense.fillNormal(rng, 1.0f);
        std::vector<tensor::Tensor> embs(sparse, tensor::Tensor(batch, d));
        for (auto& e : embs)
            e.fillNormal(rng, 1.0f);
        const nn::DotInteraction dot;
        const double pairs = (sparse + 1) * sparse / 2.0;
        h.run("interaction_dot_fwd", "GFLOP/s",
              2.0 * static_cast<double>(batch) * pairs * d,
              [&] { dot.forward(dense, embs, out); });
    }

    // --- Elementwise / reduction kernels -------------------------------
    {
        const std::size_t rows = quick ? 1024 : 4096, cols = 512;
        tensor::Tensor x(rows, cols), bias(cols), sums;
        x.fillNormal(rng, 1.0f);
        bias.fillNormal(rng, 1.0f);
        const double elems = static_cast<double>(rows) * cols;
        h.run("add_bias_rows", "elem/s", elems,
              [&] { tensor::addBiasRows(x, bias); });
        h.run("sum_rows", "elem/s", elems,
              [&] { tensor::sumRows(x, sums); });
        h.run("relu", "elem/s", elems,
              [&] { tensor::reluInPlace(x); });
        tensor::Tensor sig(rows, cols);
        sig.fillNormal(rng, 1.0f);
        h.run("sigmoid", "elem/s", elems,
              [&] { tensor::sigmoidInPlace(sig); });
    }

    // --- Dense optimizer -----------------------------------------------
    // One Adagrad step over as many parameters as the M2-like replica's
    // MLPs hold (2.3M): read grad, param and accumulator, write both.
    {
        const std::size_t params = 2286080;
        tensor::Tensor p(params), g(params);
        p.fillNormal(rng, 1.0f);
        g.fillNormal(rng, 1e-3f);
        nn::Adagrad adagrad(0.01f);
        h.run("adagrad_dense", "elem/s", static_cast<double>(params),
              [&] { adagrad.step(p, g); });
    }

    // --- Embedding kernels ---------------------------------------------
    {
        const std::size_t batch = quick ? 512 : 2048;
        const std::size_t dim = 64, lookups = 16;
        const uint64_t hash = quick ? 100000 : 1000000;
        util::Rng init_rng(2);
        nn::EmbeddingBag bag(hash, dim, init_rng);
        const auto sb = makeBatch(batch, lookups, hash * 4, rng);
        const double total = static_cast<double>(sb.totalLookups());
        tensor::Tensor pooled;
        h.run("embedding_fwd", "lookups/s", total,
              [&] { bag.forward(sb, pooled); });
        bag.forward(sb, pooled);
        tensor::Tensor dy(batch, dim);
        dy.fillNormal(rng, 1.0f);
        nn::SparseGrad grad;
        h.run("embedding_bwd", "lookups/s", total,
              [&] { bag.backward(sb, dy, grad); });
        nn::QuantizedEmbeddingBag qbag(bag,
                                       nn::EmbeddingPrecision::Int8);
        h.run("embedding_fwd_int8", "lookups/s", total,
              [&] { qbag.forward(sb, pooled); });
        // The row-wise update of that gradient into the table, as the
        // training step runs it per table. One table's update is
        // serial, so the parallel column only repeats the serial one.
        const double rows = static_cast<double>(grad.rows.size());
        nn::Adagrad adagrad(1e-3f);
        h.run("embedding_adagrad", "rows/s", rows,
              [&] { adagrad.stepSparse(bag, grad); });
        const nn::Sgd sgd(1e-3f);
        h.run("embedding_sgd", "rows/s", rows,
              [&] { sgd.stepSparse(bag, grad); });
    }

    // --- Full model step -----------------------------------------------
    {
        const std::size_t batch = quick ? 64 : 256;
        const auto cfg = model::DlrmConfig::tinyReplica(8, 13, 2000, 16);
        model::Dlrm dlrm(cfg, 1);
        data::DatasetConfig ds_cfg;
        ds_cfg.num_dense = cfg.num_dense;
        ds_cfg.sparse = cfg.sparse;
        data::SyntheticCtrDataset ds(ds_cfg);
        const auto mb = ds.nextBatch(batch);
        h.run("dlrm_fwd_bwd", "examples/s", static_cast<double>(batch),
              [&] {
                  dlrm.forwardBackward(mb);
                  dlrm.zeroGrad();
              });
    }

    util::globalThreadPool().resize(threads);
    obs::publishThreadPoolMetrics();
    const auto& metrics = obs::MetricsRegistry::global();
    std::cout << util::format(
        "\npool: {} jobs, {} tasks dispatched\n",
        metrics.gauge("pool.jobs"), metrics.gauge("pool.tasks"));

    // --- JSON emission --------------------------------------------------
    std::ofstream out(json_path);
    if (!out) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    out << "{\n";
    out << "  \"threads\": " << threads << ",\n";
    out << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n";
    out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    out << "  \"simd_kernels\": \"" << tensor::simd::activeKernels()
        << "\",\n";
    bench::writeHostJson(out, threads);
    out << "  \"kernels\": [\n";
    for (std::size_t i = 0; i < h.results.size(); ++i) {
        const auto& r = h.results[i];
        out << "    {\"name\": \"" << r.name << "\", \"metric\": \""
            << r.metric << "\", \"serial\": " << r.serial
            << ", \"parallel\": " << r.parallel << ", \"speedup\": "
            << (r.serial > 0.0 ? r.parallel / r.serial : 0.0) << "}"
            << (i + 1 < h.results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
    return 0;
}
