/**
 * @file
 * Analytical iteration cost model: the substitute for measuring on the
 * real fleet. Given a model architecture (DlrmConfig), a system
 * configuration (SystemConfig) and calibration constants (CostParams),
 * it produces steady-state training throughput, the per-phase time
 * breakdown, the binding bottleneck, per-resource utilizations and
 * power efficiency — everything the paper's evaluation figures plot.
 *
 * The model is a roofline-plus-bottleneck analysis over the model's
 * StepGraph (graph/step_graph.h) — the same per-iteration operator IR
 * the DES schedules and the real trainer executes:
 *  - every phase (MLP compute, embedding gather, collective or PS
 *    communication, input) is costed as max(work/rate) over the
 *    resources it exercises, with the work folded from graph nodes;
 *  - shared services (sparse/dense parameter servers, readers) impose
 *    system-wide throughput caps;
 *  - throughput = min(trainer-side rate, service caps), and
 *    utilization = demand / capacity at the achieved throughput.
 */
#pragma once

#include <string>
#include <vector>

#include "cost/system_config.h"
#include "graph/step_graph.h"
#include "model/config.h"
#include "placement/placement.h"

namespace recsim {
namespace cost {

/**
 * Calibration constants of the cost model. Defaults are calibrated so
 * the Table III relative-throughput shape holds (see EXPERIMENTS.md);
 * they absorb framework inefficiency the hardware specs alone cannot
 * express (Caffe2-era op dispatch, RPC serialization, imperfect
 * overlap).
 */
struct CostParams
{
    /** Backward pass cost relative to forward (dW and dX GEMMs). */
    double backward_flops_multiplier = 2.0;
    /** Embedding traffic multiplier in training: forward read plus
     *  backward read-modify-write of rows and optimizer state. */
    double emb_train_bytes_multiplier = 2.0;

    /** Per-iteration framework overhead on a CPU trainer, seconds. */
    double cpu_iteration_overhead = 0.3e-3;
    /** Per-example host-seconds of feature transform / op dispatch. */
    double cpu_per_example_overhead = 1.5e-6;
    /** Per-lookup host-seconds on the trainer (id marshalling, pooled
     *  vector copies); dominates for lookup-heavy models like M1/M3. */
    double cpu_per_lookup_overhead = 8.0e-9;
    /** Achievable fraction of CPU peak for trainer GEMMs (calibrated
     *  to production per-trainer throughput; overrides the platform's
     *  generic value inside the model). */
    double cpu_mlp_efficiency = 0.5;
    /** Activation working-set bytes per example per MLP-width unit;
     *  past the LLC this derates GEMM efficiency (Fig 11 CPU roll-off). */
    double cpu_cache_pressure_exponent = 0.35;

    /** Per-iteration host-side dispatch/sync overhead on a GPU server. */
    double gpu_iteration_overhead = 1.5e-3;
    /** Achievable fraction of GPU peak for DLRM-scale GEMMs. */
    double gpu_mlp_efficiency = 0.35;
    /** Socket-seconds of host CPU work per example on a GPU server
     *  (input pipeline, batching, H2D staging). The paper repeatedly
     *  observes the dual-socket Big Basin host becoming the bottleneck;
     *  Zion's 8 sockets quarter this cost. */
    double host_cpu_per_example = 0.8e-6;
    /** Socket-seconds of host CPU per embedding lookup on a GPU server
     *  (id batching in the input pipeline). */
    double host_cpu_per_lookup = 0.5e-9;
    /** Kernel launches per MLP layer (fwd + dgrad + wgrad). */
    double gpu_kernels_per_layer = 3.0;
    /** Fixed kernels per iteration (loss, optimizer, interaction...). */
    double gpu_fixed_kernels = 30.0;

    /** RPC serialization bandwidth per CPU socket, B/s. */
    double serialization_bw_per_socket = 5.0e9;
    /** Fraction of NIC line rate achieved as RPC goodput. */
    double network_goodput = 0.85;
    /** Extra bytes per lookup for index/request framing. */
    double request_bytes_per_lookup = 4.0;
    /** Concurrent outstanding embedding RPCs a trainer sustains. */
    double remote_inflight_rpcs = 384.0;
    /** Parameter-server request service time, seconds. */
    double ps_service_time = 20.0e-6;

    /** Gather efficiency when the working set is cache-resident. */
    double cached_gather_efficiency = 0.9;

    /** Fraction of host FLOPs usable for PS-side pooling. */
    double ps_pooling_flops_fraction = 0.5;

    /**
     * Host-seconds of per-iteration op dispatch for each
     * EmbeddingLookup *node* in the step graph (Caffe2-era per-op
     * overhead). Grouped lookup nodes (graph::fusePass) pay this once
     * per group instead of once per table, which is how the batching
     * win surfaces in the analytical column. Default 0: calibration of
     * the headline figures predates this term, so it is opt-in.
     */
    double cpu_per_table_dispatch = 0.0;

    /**
     * Run graph::fusePass over the bound step graph at construction:
     * GEMM epilogue traffic drops to zero and per-device lookups merge
     * into grouped nodes, so estimate()/nodeBreakdown() price the
     * fused iteration (bench/validation_graph_breakdown compares both).
     */
    bool fuse_step_graph = false;
};

/** One named time component of an iteration, seconds. */
struct PhaseTime
{
    std::string name;
    double seconds = 0.0;
};

/** Estimated time attributed to one StepGraph node, seconds. */
struct NodeTime
{
    /** graph::Node::id — the key the DES's node_seconds map and the
     *  trainer's obs spans also report under. */
    std::string node_id;
    double seconds = 0.0;
};

/** Per-resource utilization in [0, 1] at the achieved throughput. */
struct Utilizations
{
    double trainer_cpu = 0.0;
    double trainer_mem_bw = 0.0;
    double trainer_mem_capacity = 0.0;
    double trainer_network = 0.0;
    double gpu_compute = 0.0;
    double gpu_mem_bw = 0.0;
    double gpu_interconnect = 0.0;
    double host_mem_bw = 0.0;
    double pcie = 0.0;
    double sparse_ps_cpu = 0.0;
    double sparse_ps_mem_bw = 0.0;
    double sparse_ps_mem_capacity = 0.0;
    double sparse_ps_network = 0.0;
    double dense_ps_network = 0.0;
    double reader_network = 0.0;

    /** (name, value) pairs for reporting. */
    std::vector<std::pair<std::string, double>> asList() const;
};

/**
 * Full result of one estimate.
 *
 * Phase composition rule (what the property tests assert): the phases in
 * `breakdown` account for `iteration_seconds` under the model's
 * max/sum bottleneck structure.
 *  - CPU trainers: compute and communication pipeline across Hogwild
 *    workers and async prefetch, so
 *      iteration_seconds = max(mlp_compute + lookup_overhead +
 *                              framework_overhead, trainer_network).
 *  - GPU servers: the local phases serialize; the remote-PS phase
 *    overlaps them only when >= 2 Hogwild workers pipeline batches:
 *      local = sum of every phase except emb_remote;
 *      iteration_seconds = max(local, emb_remote)   if hogwild >= 2
 *                                                   and emb_remote > 0,
 *                          local + emb_remote        otherwise.
 * (Equalities hold to floating-point re-association, i.e. ~1e-12
 * relative.)
 */
struct IterationEstimate
{
    bool feasible = true;
    std::string infeasible_reason;

    /** Wall time of one trainer iteration, seconds. */
    double iteration_seconds = 0.0;
    /** Examples consumed per system iteration. */
    double examples_per_iteration = 0.0;
    /** System training throughput, examples/second. */
    double throughput = 0.0;
    /** The resource that binds. */
    std::string bottleneck;

    std::vector<PhaseTime> breakdown;
    Utilizations util;

    /** Sum of nodeBreakdown() seconds: the no-overlap iteration time
     *  (every node serialized). */
    double serial_sum_seconds = 0.0;
    /** Longest path through the StepGraph's dep edges with each node
     *  costed at its nodeBreakdown() seconds: the iteration's lower
     *  bound under perfect comm/compute overlap. */
    double critical_path_seconds = 0.0;
    /** critical_path_seconds / serial_sum_seconds, in (0, 1]. Low
     *  values = the edges hide most of the work (e.g. async PS
     *  placements hiding sparse comm behind the MLP); 1 = a pure
     *  chain with nothing to overlap. */
    double overlap_efficiency = 1.0;

    double power_watts = 0.0;
    /** examples / second / watt. */
    double perfPerWatt() const
    {
        return power_watts > 0.0 ? throughput / power_watts : 0.0;
    }
};

/**
 * The estimator. Construction plans the embedding placement, lowers the
 * model into its StepGraph and binds the placement to it; estimate()
 * is pure and cheap, so sweeps construct one model per design point.
 * All work quantities (FLOPs, bytes, lookups) are folds over the graph
 * nodes — the same IR the DES schedules and the trainer executes.
 */
class IterationModel
{
  public:
    IterationModel(model::DlrmConfig model_config,
                   SystemConfig system_config, CostParams params = {});

    /** Steady-state estimate for the configured system. */
    IterationEstimate estimate() const;

    /**
     * Per-node time attribution of one iteration: every compute node
     * costed at its phase's rate, every Comm node at its link/service
     * rate, mirroring the demand expressions the DES uses so the two
     * line up node by node (bench/validation_graph_breakdown). Compute
     * phases of estimate().breakdown are sums over their nodes; on the
     * GPU path every phase is. Empty when the plan is infeasible.
     */
    std::vector<NodeTime> nodeBreakdown() const;

    const placement::PlacementPlan& plan() const { return plan_; }
    const model::DlrmConfig& modelConfig() const { return model_; }
    const SystemConfig& systemConfig() const { return system_; }

    /** The bound operator graph of one training step. */
    const graph::StepGraph& stepGraph() const { return graph_; }

    /** Aggregate work totals folded from the graph (== footprint()). */
    const graph::WorkSummary& workSummary() const { return summary_; }

    /**
     * Fraction of remote lookup traffic served by the trainer-side
     * hot-row cache (0 when no cache is configured). Analytic: Zipf
     * top-k mass with the cache split across the graph's embedding
     * nodes by access share.
     */
    double remoteCacheHitFraction() const;

    /**
     * Traffic-weighted fraction of embedding gather traffic the
     * placement routes to the managed hot tier
     * (SystemConfig::emb_hot_tier_bytes budget, packed by
     * placement::planPlacement). 0 when no hot tier is configured.
     * This is the analytic prediction the executable
     * nn::CachedBackend's measured hit rate is validated against
     * (bench/validation_graph_breakdown, bench/ext_caching).
     */
    double hotTierHitFraction() const { return plan_.hot_hit_fraction; }

  private:
    IterationEstimate estimateCpu() const;
    IterationEstimate estimateGpu() const;

    /** Seconds of each graph node, in node order (nodeBreakdown()
     *  pairs them with the ids). The GPU path splits @p phases, the
     *  breakdown of estimateGpu(). */
    std::vector<double> nodeSecondsCpu() const;
    std::vector<double> nodeSecondsGpu(
        const std::vector<PhaseTime>& phases) const;

    /** Sparse-PS aggregate serving capacity, examples/s (0 = none). */
    double sparsePsCapacity() const;

    model::DlrmConfig model_;
    SystemConfig system_;
    CostParams params_;
    placement::PlacementPlan plan_;
    graph::StepGraph graph_;
    graph::WorkSummary summary_;
};

} // namespace cost
} // namespace recsim
