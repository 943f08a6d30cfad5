/**
 * @file
 * Embedding-table placement strategies (Fig 8 of the paper): on GPU
 * memory, on the GPU server's system memory, on remote CPU parameter
 * servers, or hybrid. planPlacement() checks capacity feasibility,
 * partitions the tables, and summarizes where lookup traffic lands —
 * the inputs the iteration cost model needs.
 */
#pragma once

#include <string>

#include "hw/platform.h"
#include "model/config.h"
#include "placement/partitioner.h"

namespace recsim {
namespace graph {
struct StepGraph;
} // namespace graph

namespace placement {

/** Where the embedding tables live (Fig 8). */
enum class EmbeddingPlacement
{
    GpuMemory,    ///< Distributed over the server's GPUs.
    HostMemory,   ///< System memory of the GPU server.
    RemotePs,     ///< System memory of remote sparse parameter servers.
    Hybrid,       ///< Hottest tables on GPU, remainder on host memory.
    CpuLocal      ///< CPU training: tables on (remote) sparse PS.
};

/** Human-readable placement name. */
std::string toString(EmbeddingPlacement placement);

/** Outcome of planning a placement for a model on a platform. */
struct PlacementPlan
{
    EmbeddingPlacement placement = EmbeddingPlacement::GpuMemory;
    bool feasible = true;
    std::string infeasible_reason;

    /** Table partition across the hosting shards. */
    Partition partition;

    /** Number of GPUs holding at least one table (GpuMemory/Hybrid). */
    std::size_t gpus_used = 0;

    /**
     * GpuMemory only: the tables are small enough to replicate on every
     * GPU, so lookups are fully local and no all-to-all is needed —
     * only a (cheap) sync of the touched rows. Growing tables past the
     * replication budget forces sharding, which introduces the
     * inter-GPU communication the paper blames for the Fig 12 drop.
     */
    bool replicated = false;

    /** Fraction of per-example lookup *bytes* served from GPU memory. */
    double gpu_lookup_fraction = 0.0;

    /** Fraction of lookup bytes served from remote parameter servers. */
    double remote_lookup_fraction = 0.0;

    /** Total resident bytes including optimizer state. */
    double resident_bytes = 0.0;

    /** max/mean lookup traffic across hosting shards. */
    double access_imbalance = 1.0;

    // ---- Hot-tier allocation (PlacementOptions::hot_tier_bytes) ----
    // Empty / zero unless a hot-tier budget was set. Fully-packed
    // tables get their whole residency and hit fraction 1; the
    // leftover budget acts as a per-table hot-row cache whose hit
    // fraction follows the Zipf top-mass of the rows it holds.

    /** Hot-tier bytes allocated to each table (config.sparse order). */
    std::vector<double> table_hot_bytes;

    /** Predicted hot-tier traffic hit fraction per table. */
    std::vector<double> table_hot_hit_fraction;

    /** Total hot-tier bytes allocated across tables. */
    double hot_tier_bytes = 0.0;

    /** Traffic-weighted mean hot hit fraction over all lookups. */
    double hot_hit_fraction = 0.0;
};

/** Knobs for planPlacement(). */
struct PlacementOptions
{
    /** Multiplier on table bytes for optimizer state + fragmentation. */
    double memory_overhead_factor = 1.25;
    /** Fraction of a GPU's memory usable for tables (activations,
     *  buffers and framework overhead consume the rest). */
    double usable_memory_fraction = 0.8;
    /** Fraction of a host's system memory usable for tables: the OS,
     *  input pipeline, staging buffers and framework leave roughly half
     *  (this is why the paper's M3 cannot use Big Basin host memory). */
    double host_usable_memory_fraction = 0.55;
    /** Number of remote sparse parameter servers (RemotePs/CpuLocal). */
    std::size_t num_sparse_ps = 8;
    /**
     * Number of identical GPU servers ganged together (scale-out
     * extension, Section VI-B's "multiple Big Basins" / multi-Zion
     * future work). Tables may shard across all nodes' devices.
     */
    std::size_t num_nodes = 1;
    /**
     * Bytes per embedding element as served (4 = fp32 master, 2 = fp16,
     * 1(+scale/bias) = int8 row-wise quantization — the compression
     * opportunity of Section III-A). Shrinks capacity and lookup
     * bandwidth; see nn::QuantizedEmbeddingBag for the functional side.
     */
    double emb_bytes_per_element = 4.0;
    /** Partitioning objective across shards. */
    BalanceObjective objective = BalanceObjective::AccessBytes;
    /** Fraction of one GPU's usable memory a full replica may occupy
     *  before the planner falls back to sharding. */
    double replication_budget_fraction = 0.05;
    /**
     * Embedding hot-tier capacity budget on the hosting device, bytes
     * (the tiered-memory extension). When positive, the planner
     * chooses a tier per table: whole tables are packed hottest-first
     * by access density, and the leftover budget becomes per-table
     * hot-row caches sized by traffic share. 0 disables tiering.
     */
    double hot_tier_bytes = 0.0;
};

/**
 * Plan where @p config's tables live on @p platform under @p strategy.
 * Never fatal()s: infeasible plans come back with feasible == false and
 * a reason, so sweeps can chart the feasibility frontier (Fig 12).
 */
PlacementPlan planPlacement(EmbeddingPlacement strategy,
                            const model::DlrmConfig& config,
                            const hw::Platform& platform,
                            const PlacementOptions& options = {});

/**
 * Pick the best feasible placement for a model on a platform by
 * estimated lookup service time (the advisor the paper's Fig 1 placement
 * arrows imply). Returns the chosen plan; falls back to RemotePs.
 */
PlacementPlan advisePlacement(const model::DlrmConfig& config,
                              const hw::Platform& platform,
                              const PlacementOptions& options = {});

/**
 * Annotate @p graph with @p plan: every EmbeddingLookup node gets its
 * device (and hosting shard where the partition maps tables 1:1), and
 * the Comm nodes the placement implies are appended — per-PS-shard RPC
 * legs (request / gather / pool / response / gradient push) carrying
 * each shard's fraction of the lookup traffic, the amortized dense
 * sync, and on GPU servers the input-pipeline, all-to-all, PCIe-staging,
 * deserialization and allreduce ops. The per-shard `share` fields are
 * computed with the exact fold the DES used pre-graph, so demands
 * derived from them are bit-identical.
 *
 * @param num_sparse_ps Sparse-PS count of the system (shards beyond the
 *        partition get share 0, mirroring idle servers).
 */
void bindStepGraph(graph::StepGraph& graph, const PlacementPlan& plan,
                   std::size_t num_sparse_ps);

} // namespace placement
} // namespace recsim
