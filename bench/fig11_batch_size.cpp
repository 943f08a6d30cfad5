/**
 * @file
 * Fig 11 reproduction: batch-size scaling of training throughput on the
 * CPU and GPU setups for several sparse/dense feature mixes. Fixed MLP
 * 512^3 and hash size 100k, as in the paper.
 */
#include <iostream>

#include "bench_util.h"
#include "core/explorer.h"
#include "sim/dist_sim.h"
#include "train/hogwild.h"
#include "util/string_utils.h"

using namespace recsim;

int
main(int argc, char** argv)
{
    bench::TraceSession trace_session(argc, argv);
    bench::banner("Fig 11", "Batch-size scaling on CPU and GPU",
                  "Fixed MLP 512^3, hash 100k. CPU: single trainer + "
                  "PS. GPU: one Big Basin, EMB on GPU memory.");

    core::DesignSpaceExplorer explorer;
    const std::vector<std::size_t> batches =
        {50, 100, 200, 400, 800, 1600, 3200, 6400, 12800};

    struct Mix
    {
        std::size_t dense, sparse;
    };
    for (const Mix mix : {Mix{256, 8}, Mix{256, 32}, Mix{1024, 64}}) {
        std::cout << "dense=" << mix.dense << ", sparse=" << mix.sparse
                  << ":\n";
        const auto rows =
            explorer.batchSweep(mix.dense, mix.sparse, batches, batches);
        util::TextTable table;
        table.header({"batch", "CPU thr", "GPU thr", "CPU bottleneck",
                      "GPU bottleneck"});
        for (std::size_t i = 0; i < rows.size(); ++i) {
            table.row({std::to_string(batches[i]),
                       bench::kexps(rows[i].cpu.throughput),
                       bench::kexps(rows[i].gpu.throughput),
                       rows[i].cpu.bottleneck, rows[i].gpu.bottleneck});
        }
        std::cout << table.render() << "\n";
    }

    std::cout <<
        "Shape check (paper): CPU throughput peaks at a moderate batch "
        "and declines beyond it\n(cache pressure); GPU throughput rises "
        "roughly linearly while launch overheads amortize,\nthen "
        "saturates once communication/compute dominate.\n";

    if (trace_session.active()) {
        // Populate the trace with the two timelines the summary is
        // about: real trainer threads (a short functional Hogwild run)
        // and simulated nodes (a short DES run of the CPU setup).
        {
            RECSIM_TRACE_SPAN("fig11.hogwild_sample");
            const auto cfg =
                model::DlrmConfig::tinyReplica(8, 8, 2000, 16);
            data::DatasetConfig ds_cfg;
            ds_cfg.num_dense = cfg.num_dense;
            ds_cfg.sparse = cfg.sparse;
            data::SyntheticCtrDataset ds(ds_cfg);
            ds.materialize(4096);
            train::HogwildConfig hw;
            hw.num_threads = 4;
            hw.base.batch_size = 64;
            hw.base.epochs = 1;
            train::trainHogwild(cfg, ds, hw, 1024);
        }
        {
            RECSIM_TRACE_SPAN("fig11.des_sample");
            core::TestSuiteParams params;
            sim::DistSimConfig sim_cfg;
            sim_cfg.model = model::DlrmConfig::testSuite(
                256, 32, params.hash_size, params.mlp_width,
                params.mlp_layers, params.mean_length,
                params.truncation);
            sim_cfg.system = params.cpuSystem();
            sim_cfg.system.hogwild_threads = 2;
            sim_cfg.measure_seconds = 0.02;
            sim::runDistSim(sim_cfg);
        }
    }
    return 0;
}
