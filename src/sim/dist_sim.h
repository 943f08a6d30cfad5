/**
 * @file
 * Discrete-event simulation of distributed DLRM training (Fig 4 of the
 * paper): trainer servers running Hogwild worker threads, sparse
 * parameter servers serving embedding lookups, a dense parameter server
 * handling EASGD syncs, or one GPU server, all connected by links.
 *
 * The DES is a list scheduler over the priced StepGraph. It prices
 * nothing itself: cost::IterationModel::prices() gives every node one
 * (resource, seconds) pair, and each worker iteration walks the graph
 * in topological order, starting a node when its deps finish and
 * holding the node's resource instance for its price. What the DES adds
 * to the prices is what the closed-form model abstracts away:
 *  - queueing at shared resources (PS shards, the dense PS, a trainer's
 *    CPU and NIC under several workers);
 *  - link latency after each transfer;
 *  - overlap across Hogwild workers, and within an iteration wherever
 *    the dep edges allow it;
 *  - run-to-run variability (optional lognormal noise on every price),
 *    the machinery behind the utilization-distribution study (Fig 5).
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "cost/iteration_model.h"
#include "cost/system_config.h"
#include "model/config.h"

namespace recsim {
namespace sim {

/** Configuration of one simulated training run. */
struct DistSimConfig
{
    model::DlrmConfig model;
    cost::SystemConfig system;
    cost::CostParams params;

    /** Simulated seconds of the measurement window, which opens
     *  after 0.05 simulated seconds of warmup. */
    double measure_seconds = 2.0;
    /**
     * Lognormal sigma multiplying every service demand; 0 disables
     * noise. Models the paper's run-to-run system-level variability.
     */
    double service_noise_sigma = 0.0;
    uint64_t seed = 1;
};

/** Measured outcome of a simulated run. */
struct DistSimResult
{
    bool feasible = true;
    std::string infeasible_reason;

    /** Examples per simulated second in the measurement window. */
    double throughput = 0.0;
    /** Iterations completed across all workers in the window. */
    uint64_t iterations = 0;
    /** Mean per-worker iteration latency, seconds. */
    double mean_iteration_seconds = 0.0;

    /**
     * Resource utilizations over the measurement window, keyed by
     * resource name (e.g. "trainer0.cpu", "sparse_ps1.mem", ...).
     */
    std::map<std::string, double> utilization;

    /**
     * Mean simulated seconds per iteration of each StepGraph node, from
     * the tick its deps finish to the tick it finishes (keyed by
     * graph::Node::id, the same ids the analytical nodeBreakdown() and
     * the trainer's obs spans report under). That is the node's price,
     * plus its queueing at its resource and a link's latency. Nodes
     * priced at zero are left out.
     */
    std::map<std::string, double> node_seconds;

    /** Mean utilization across resources whose name contains @p key. */
    double meanUtilization(const std::string& key) const;
};

/**
 * Run the discrete-event simulation for one configuration.
 *
 * Supported systems: CPU distributed training (trainers + sparse/dense
 * PS) and single-GPU-server training with any placement. Infeasible
 * placements return feasible == false, mirroring IterationModel.
 * Resource instances are reported in `utilization` under the names
 * trainer<t>.cpu, trainer<t>.nic, sparse_ps<s>.mem|cpu|nic,
 * dense_ps.nic, gpu.compute, gpu.mem, gpu.interconnect, host.mem,
 * host.cpu, host.pcie and gpu_server.nic, as the system has them.
 */
DistSimResult runDistSim(const DistSimConfig& config);

} // namespace sim
} // namespace recsim
