/**
 * @file
 * Tests for the distributed-training DES: agreement with the analytical
 * model, utilization reporting, noise behaviour, feasibility mirroring.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "cost/iteration_model.h"
#include "graph/step_graph.h"
#include "model/config.h"
#include "obs/drift.h"
#include "obs/flight_recorder.h"
#include "sim/dist_sim.h"

namespace recsim::sim {
namespace {

using placement::EmbeddingPlacement;

DistSimConfig
cpuConfig()
{
    DistSimConfig cfg;
    cfg.model = model::DlrmConfig::testSuite(256, 16, 100000);
    cfg.system = cost::SystemConfig::cpuSetup(2, 2, 1, 200, 1);
    cfg.measure_seconds = 0.5;
    return cfg;
}

DistSimConfig
gpuConfig(EmbeddingPlacement placement = EmbeddingPlacement::GpuMemory)
{
    DistSimConfig cfg;
    cfg.model = model::DlrmConfig::testSuite(256, 16, 100000);
    cfg.system = cost::SystemConfig::bigBasinSetup(placement, 1600,
        placement == EmbeddingPlacement::RemotePs ? 4 : 0);
    cfg.measure_seconds = 0.5;
    return cfg;
}

TEST(DistSim, CpuRunProducesThroughput)
{
    const auto result = runDistSim(cpuConfig());
    EXPECT_TRUE(result.feasible);
    EXPECT_GT(result.throughput, 0.0);
    EXPECT_GT(result.iterations, 10u);
    EXPECT_GT(result.mean_iteration_seconds, 0.0);
}

TEST(DistSim, ShardedCpuIterationBeatsNoOverlapSum)
{
    // With noise off, a PS-sharded CPU iteration must finish strictly
    // faster than executing every graph node back to back: the DES
    // schedules the comm legs from the dep edges, so the bottom-MLP
    // half of compute and the per-shard RPC legs overlap.
    DistSimConfig cfg = cpuConfig();
    cfg.system = cost::SystemConfig::cpuSetup(2, 4, 1, 200, 1);
    const auto result = runDistSim(cfg);
    ASSERT_TRUE(result.feasible);

    double node_sum = 0.0;
    for (const auto& [id, seconds] : result.node_seconds)
        node_sum += seconds;
    ASSERT_GT(node_sum, 0.0);
    EXPECT_LT(result.mean_iteration_seconds, node_sum);

    // The analytical model agrees about the direction: its critical
    // path (and the iteration built on it) undercuts the serial sum.
    const auto est =
        cost::IterationModel(cfg.model, cfg.system).estimate();
    ASSERT_TRUE(est.feasible);
    EXPECT_LT(est.critical_path_seconds, est.serial_sum_seconds);
    EXPECT_LT(est.overlap_efficiency, 1.0);
}

TEST(DistSim, CpuAgreesWithAnalyticalWithinFactorTwo)
{
    const auto cfg = cpuConfig();
    const auto sim_result = runDistSim(cfg);
    const auto analytical =
        cost::IterationModel(cfg.model, cfg.system).estimate();
    const double ratio = sim_result.throughput / analytical.throughput;
    EXPECT_GT(ratio, 0.4);
    EXPECT_LT(ratio, 2.5);
}

TEST(DistSim, GpuAgreesWithAnalyticalWithinFactorTwo)
{
    const auto cfg = gpuConfig();
    const auto sim_result = runDistSim(cfg);
    const auto analytical =
        cost::IterationModel(cfg.model, cfg.system).estimate();
    ASSERT_GT(analytical.throughput, 0.0);
    const double ratio = sim_result.throughput / analytical.throughput;
    EXPECT_GT(ratio, 0.4);
    EXPECT_LT(ratio, 2.5);
}

TEST(DistSim, DeterministicForSeed)
{
    const auto a = runDistSim(cpuConfig());
    const auto b = runDistSim(cpuConfig());
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST(DistSim, ReportsUtilizationsForAllNodes)
{
    const auto result = runDistSim(cpuConfig());
    EXPECT_TRUE(result.utilization.count("trainer0.cpu"));
    EXPECT_TRUE(result.utilization.count("trainer1.nic"));
    EXPECT_TRUE(result.utilization.count("sparse_ps0.mem"));
    EXPECT_TRUE(result.utilization.count("sparse_ps1.nic"));
    EXPECT_TRUE(result.utilization.count("dense_ps.nic"));
    for (const auto& [name, util] : result.utilization) {
        EXPECT_GE(util, 0.0) << name;
        EXPECT_LE(util, 1.0) << name;
    }
}

TEST(DistSim, GpuReportsDeviceUtilizations)
{
    const auto result = runDistSim(gpuConfig());
    EXPECT_TRUE(result.utilization.count("gpu.compute"));
    EXPECT_TRUE(result.utilization.count("gpu.mem"));
    EXPECT_TRUE(result.utilization.count("host.cpu"));
    EXPECT_GT(result.utilization.at("gpu.compute"), 0.0);
}

TEST(DistSim, MeanUtilizationFiltersByKey)
{
    const auto result = runDistSim(cpuConfig());
    const double trainers = result.meanUtilization("trainer");
    const double ps = result.meanUtilization("sparse_ps");
    EXPECT_GT(trainers, 0.0);
    EXPECT_GT(ps, 0.0);
    EXPECT_EQ(result.meanUtilization("nonexistent"), 0.0);
}

TEST(DistSim, InfeasiblePlacementMirrorsAnalyticalModel)
{
    DistSimConfig cfg;
    cfg.model = model::DlrmConfig::m3Prod();
    cfg.system = cost::SystemConfig::bigBasinSetup(
        EmbeddingPlacement::GpuMemory, 800);
    const auto result = runDistSim(cfg);
    EXPECT_FALSE(result.feasible);
    EXPECT_FALSE(result.infeasible_reason.empty());
}

TEST(DistSim, InfeasiblePlanSkipsLoweringAndPricing)
{
    // The 100M-row Fig 12 point overflows the CPU setup's one sparse
    // PS. Construction stops after planning, so nothing is lowered or
    // priced, and a trainer-side cache has no rows to split.
    DistSimConfig cfg;
    cfg.model = model::DlrmConfig::testSuite(256, 64, 100000000);
    cfg.system = cost::SystemConfig::cpuSetup(1, 1, 1, 200, 1);
    cfg.system.remote_cache_bytes = 1e9;
    const cost::IterationModel im(cfg.model, cfg.system);
    EXPECT_TRUE(im.stepGraph().nodes.empty());
    EXPECT_TRUE(im.nodeBreakdown().empty());
    EXPECT_TRUE(im.prices().empty());
    EXPECT_EQ(im.remoteCacheHitFraction(), 0.0);

    const auto est = im.estimate();
    EXPECT_FALSE(est.feasible);
    EXPECT_FALSE(est.infeasible_reason.empty());
    EXPECT_EQ(est.infeasible_reason, im.plan().infeasible_reason);
    EXPECT_EQ(est.power_watts, cfg.system.totalPowerWatts());
    EXPECT_GT(est.power_watts, 0.0);

    const auto result = runDistSim(cfg);
    EXPECT_FALSE(result.feasible);
    EXPECT_FALSE(result.infeasible_reason.empty());
}

TEST(DistSim, MoreTrainersMoreThroughput)
{
    auto cfg = cpuConfig();
    const double two = runDistSim(cfg).throughput;
    cfg.system = cost::SystemConfig::cpuSetup(4, 2, 1, 200, 1);
    const double four = runDistSim(cfg).throughput;
    EXPECT_GT(four, two * 1.3);
}

TEST(DistSim, HogwildWorkersRaiseTrainerUtilization)
{
    auto cfg = cpuConfig();
    cfg.system.hogwild_threads = 1;
    const auto one = runDistSim(cfg);
    cfg.system.hogwild_threads = 4;
    const auto four = runDistSim(cfg);
    EXPECT_GT(four.throughput, one.throughput);
    EXPECT_GE(four.meanUtilization("trainer"),
              one.meanUtilization("trainer"));
}

TEST(DistSim, NoiseChangesResultsButKeepsScale)
{
    auto cfg = cpuConfig();
    const double clean = runDistSim(cfg).throughput;
    cfg.service_noise_sigma = 0.2;
    cfg.seed = 99;
    const double noisy = runDistSim(cfg).throughput;
    EXPECT_NE(clean, noisy);
    EXPECT_GT(noisy, clean * 0.5);
    EXPECT_LT(noisy, clean * 1.5);
}

TEST(DistSim, NoiseSeedsProduceDifferentRuns)
{
    auto cfg = cpuConfig();
    cfg.service_noise_sigma = 0.2;
    cfg.seed = 1;
    const double a = runDistSim(cfg).throughput;
    cfg.seed = 2;
    const double b = runDistSim(cfg).throughput;
    EXPECT_NE(a, b);
}

struct ContractSetup
{
    std::string name;
    model::DlrmConfig model;
    cost::SystemConfig system;
};

/** test_golden's breakdown setups, the CPU one with one trainer, plus
 *  that CPU setup under synchronous dense sync. */
std::vector<ContractSetup>
contractSetups()
{
    const auto m1 = model::DlrmConfig::m1Prod();
    const auto m3 = model::DlrmConfig::m3Prod();
    const auto cpu = cost::SystemConfig::cpuSetup(1, 8, 2, 200, 1);
    auto cpu_sync = cpu;
    cpu_sync.sync_mode = cost::SyncMode::Sync;
    using cost::SystemConfig;
    return {
        {"cpu", m1, cpu},
        {"cpu_sync", m1, cpu_sync},
        {"bb_gpu_memory", m1,
         SystemConfig::bigBasinSetup(EmbeddingPlacement::GpuMemory, 1600)},
        {"bb_host_memory", m1,
         SystemConfig::bigBasinSetup(EmbeddingPlacement::HostMemory,
                                     1600)},
        {"bb_remote_ps", m1,
         SystemConfig::bigBasinSetup(EmbeddingPlacement::RemotePs, 1600,
                                     4)},
        {"bb_hybrid", m3,
         SystemConfig::bigBasinSetup(EmbeddingPlacement::Hybrid, 1600)},
        {"zion_gpu_memory", m1,
         SystemConfig::zionSetup(EmbeddingPlacement::GpuMemory, 1600)},
        {"zion_host_memory", m1,
         SystemConfig::zionSetup(EmbeddingPlacement::HostMemory, 1600)},
        {"zion_remote_ps", m1,
         SystemConfig::zionSetup(EmbeddingPlacement::RemotePs, 1600, 4)},
        {"zion_hybrid", m3,
         SystemConfig::zionSetup(EmbeddingPlacement::Hybrid, 1600)},
    };
}

/** Latency of the link a Comm node crosses, 0 for other nodes. */
double
linkLatency(const graph::Node& node, const hw::Platform& platform)
{
    const double ps = hw::Platform::dualSocketCpu().network.latency;
    switch (node.comm) {
      case graph::CommOp::PsRequest:
      case graph::CommOp::GradPush:
        return platform.network.latency;
      case graph::CommOp::PsResponse:
      case graph::CommOp::DenseSync:
        return ps;
      case graph::CommOp::AllToAll:
      case graph::CommOp::AllReduce:
        return platform.gpu_interconnect.latency;
      case graph::CommOp::PcieStage:
        return platform.host_gpu.latency;
      default:
        return 0.0;
    }
}

TEST(DistSim, OneWorkerRunsEveryNodeAtItsPriceWithinTheGraphBounds)
{
    // With one worker and no noise, the DES may only add to the
    // prices: every node holds its resource at least as long as the
    // cost model prices it, and an iteration lies between the
    // critical path and the serial sum plus the link latencies, each
    // widened by one tick of rounding per node.
    for (const ContractSetup& s : contractSetups()) {
        SCOPED_TRACE(s.name);
        DistSimConfig cfg;
        cfg.model = s.model;
        cfg.system = s.system;
        cfg.system.hogwild_threads = 1;
        cfg.measure_seconds = 1.0;
        const cost::IterationModel im(cfg.model, cfg.system);
        const auto est = im.estimate();
        const auto result = runDistSim(cfg);
        ASSERT_TRUE(est.feasible);
        ASSERT_TRUE(result.feasible);
        ASSERT_GT(result.iterations, 0u);

        std::vector<std::string> short_nodes;
        for (const cost::NodeTime& node : im.nodeBreakdown()) {
            if (node.seconds <= 0.0)
                continue;
            const auto it = result.node_seconds.find(node.node_id);
            const double simulated =
                it == result.node_seconds.end() ? 0.0 : it->second;
            if (simulated < node.seconds - 1e-9)
                short_nodes.push_back(node.node_id);
        }
        EXPECT_TRUE(short_nodes.empty())
            << short_nodes.size() << " nodes run shorter than their "
            << "price, first " << short_nodes.front();

        const auto& nodes = im.stepGraph().nodes;
        double latencies = 0.0;
        for (const graph::Node& node : nodes)
            latencies += linkLatency(node, cfg.system.platform);
        const double ticks = 1e-9 * static_cast<double>(nodes.size());
        EXPECT_GE(result.mean_iteration_seconds,
                  est.critical_path_seconds - ticks);
        EXPECT_LE(result.mean_iteration_seconds,
                  est.serial_sum_seconds + latencies + ticks);
    }
}

// The DES records its node spans on simulated tracks under the node
// ids the measured spans use, so the drift monitor must skip them: a
// recorded simulation measures nothing.
TEST(DistSim, RecordedSpansAreSimulatedAndNeverMeasured)
{
    DistSimConfig cfg = cpuConfig();
    cfg.measure_seconds = 0.05;
    obs::FlightRecorder& rec = obs::FlightRecorder::global();
    rec.configure(1 << 16);
    rec.setEnabled(true);
    runDistSim(cfg);
    rec.setEnabled(false);
    const auto samples = rec.snapshot();
    rec.reset();

    std::map<std::string, double> predicted;
    for (const auto& node :
         cost::IterationModel(cfg.model, cfg.system).nodeBreakdown())
        predicted[node.node_id] = node.seconds;
    const auto tracks = rec.tracks();
    const auto names = rec.channels();
    std::size_t node_spans = 0;
    for (const obs::Sample& sample : samples) {
        EXPECT_TRUE(sample.span);
        EXPECT_TRUE(tracks[sample.track].simulated);
        node_spans += predicted.count(names[sample.channel]);
    }
    ASSERT_GT(node_spans, 0u);

    obs::DriftMonitor monitor(predicted);
    monitor.ingest(rec, samples);
    const obs::DriftReport report = monitor.report();
    EXPECT_EQ(report.steps_observed, 0u);
    ASSERT_FALSE(report.nodes.empty());
    for (const obs::NodeDrift& node : report.nodes)
        EXPECT_EQ(node.samples, 0u) << node.node_id;
}

TEST(DistSim, RemotePlacementSlowerThanGpuMemory)
{
    const double local = runDistSim(gpuConfig()).throughput;
    const double remote = runDistSim(
        gpuConfig(EmbeddingPlacement::RemotePs)).throughput;
    EXPECT_GT(local, remote);
}

} // namespace
} // namespace recsim::sim
