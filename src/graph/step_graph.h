/**
 * @file
 * StepGraph IR: one DLRM training iteration as a typed operator graph.
 *
 * The paper's methodology is a per-operator breakdown of one training
 * step (Figs 9-14, Table III). Before this IR existed the repo encoded
 * that step three separate times — closed-form phase formulas in
 * cost/iteration_model, hand-wired DES events in sim/dist_sim, and the
 * real layer sequence in train/trainer — which could silently drift
 * apart. The StepGraph is the single source of truth the three share:
 *
 *  - buildModelStepGraph() lowers a DlrmConfig into per-layer Gemm
 *    nodes, per-table EmbeddingLookup (and projection Gemm) nodes, an
 *    Interaction node, Loss and OptimizerUpdate nodes, each annotated
 *    with per-example FLOPs, bytes moved and parameter bytes using the
 *    exact arithmetic of DlrmConfig::footprint() / mlpParams();
 *  - placement::bindStepGraph() annotates the embedding nodes with
 *    their device/shard and appends the Comm nodes (PS RPC legs,
 *    all-to-all, allreduce, input pipeline) the placement implies;
 *  - summarize() folds the node annotations back into the aggregate
 *    work totals, reproducing ExampleFootprint bit-for-bit so every
 *    consumer that previously called footprint() gets identical values.
 *
 * Consumers: cost/IterationModel folds phase times over the nodes,
 * sim/dist_sim schedules the nodes as DES events, and
 * train/runGraphStep executes the real nn layers node by node (tagging
 * obs spans with the node ids). bench/validation_graph_breakdown lines
 * the three up per node. placement::TableCosts reads the same specs
 * with the same expressions as the embedding-node annotations, so the
 * planner prices tables without lowering a graph.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/config.h"

namespace recsim {
namespace graph {

/** Operator type of a node. */
enum class NodeKind
{
    Gemm,             ///< One Linear layer (fwd GEMM; bwd implied).
    EmbeddingLookup,  ///< One table: gather + pool.
    Interaction,      ///< Pairwise-dot (or concat) feature interaction.
    Loss,             ///< BCE-with-logits loss + gradient seed.
    OptimizerUpdate,  ///< Dense + sparse parameter update.
    Comm              ///< Communication / RPC leg (see CommOp).
};

/** Which MLP a Gemm node belongs to. */
enum class GemmRole
{
    BottomMlp,
    TopMlp,
    Projection  ///< Mixed-dimension up-projection for one table.
};

/** Communication op of a Comm node. */
enum class CommOp
{
    None,
    PsRequest,    ///< Trainer -> sparse-PS index request (one shard).
    PsGather,     ///< PS-side embedding-row gather (one shard).
    PsPool,       ///< PS-side pooling + gradient scatter (one shard).
    PsResponse,   ///< Sparse-PS -> trainer pooled vectors (one shard).
    GradPush,     ///< Trainer -> sparse-PS pooled gradients (one shard).
    Deserialize,  ///< Host-CPU RPC deserialization of PS responses.
    DenseSync,    ///< Amortized EASGD dense sync with the dense PS.
    AllToAll,     ///< Pooled-embedding exchange across GPUs.
    AllReduce,    ///< Dense-gradient allreduce across GPUs.
    HostGather,   ///< Host-memory embedding gather on a GPU server.
    PcieStage,    ///< Pooled vectors staged host <-> GPU over PCIe.
    Input         ///< Input pipeline: reader bytes + host transform.
};

/** Where a node executes after placement binding. */
enum class Device
{
    Unassigned,
    TrainerCpu,
    Gpu,
    HostCpu,   ///< GPU server's host sockets.
    SparsePs,
    DensePs
};

/** One operator of the training step, annotated with its work. */
struct Node
{
    /** Stable id, e.g. "bottom_mlp.l0", "emb.t3", "comm.ps_gather.s1".
     *  These are the keys the cost model, the DES and the trainer's
     *  obs spans all report under. */
    std::string id;
    NodeKind kind = NodeKind::Gemm;
    GemmRole role = GemmRole::BottomMlp;
    CommOp comm = CommOp::None;
    Device device = Device::Unassigned;

    /** Layer index within its MLP (Gemm), else -1. */
    int layer = -1;
    /** Sparse-feature index (EmbeddingLookup / Projection), else -1. */
    int table = -1;
    /** Hosting shard (PS index or GPU index) after binding, else -1. */
    int shard = -1;

    std::size_t in_width = 0;
    std::size_t out_width = 0;

    /** Forward FLOPs per example (backward is a model-level multiple). */
    double fwd_flops = 0.0;
    /** Learned parameters (weights + biases) owned by this node. */
    double param_count = 0.0;
    /** Resident parameter bytes (FP32, before serving compression). */
    double param_bytes = 0.0;
    /** Memory bytes touched per example (embedding-row reads). */
    double bytes_per_example = 0.0;
    /** Activated indices per example (EmbeddingLookup). */
    double lookups_per_example = 0.0;
    /** Pooled-vector bytes per example (EmbeddingLookup). */
    double pooled_bytes_per_example = 0.0;

    /** Embedding rows (hash size) of an EmbeddingLookup node. */
    uint64_t rows = 0;
    /** Zipf skew of this table's index popularity. */
    double zipf_exponent = 0.0;

    /**
     * EmbeddingLookup nodes: hot-tier bytes the placement planner
     * allocated to this table (placement::bindStepGraph), and the
     * predicted fraction of this node's lookup traffic the hot tier
     * serves. Zero when no hot-tier budget is configured. fusePass
     * sums the bytes and traffic-weights the hit fraction over member
     * tables, so grouped nodes keep a meaningful tier split.
     */
    double hot_tier_bytes = 0.0;
    double hot_hit_fraction = 0.0;

    /**
     * Gemm nodes: activation bytes per example the *unfused* bias +
     * activation epilogue re-reads and re-writes as separate passes
     * over the layer output (2 * out_width * 4 per pass). Set by
     * buildModelStepGraph(), zeroed by fusePass() when the epilogue is
     * folded into the GEMM store — the memory-traffic saving fusion
     * buys, priced by cost::IterationModel and sim::runDistSim.
     */
    double epilogue_traffic_bytes = 0.0;
    /**
     * Gemm nodes: the bias(+activation) epilogue runs inside the GEMM
     * (tensor::matmulBiasAct) instead of as separate passes. Set by
     * fusePass(); the trainer dispatches on it.
     */
    bool fused_epilogue = false;
    /**
     * Backward-pass twin of epilogue_traffic_bytes: bytes per example
     * the *unfused* backward epilogues move as separate passes — the
     * bias-grad sumRows re-read of dy (out_width * 4) plus, for hidden
     * layers, reluBackward's read+write of the input gradient
     * (2 * in_width * 4). On the Interaction node it is instead the
     * flatten-buffer traffic the interaction-flatten fusion removes
     * (the d_interact round trip). Set by buildModelStepGraph(),
     * zeroed by fusePass() alongside the flags below.
     */
    double bwd_epilogue_traffic_bytes = 0.0;
    /**
     * Gemm nodes: the backward epilogues run inside the grad GEMMs —
     * bias grad accumulated in the weight-grad sweep
     * (tensor::matmulTransABiasGrad) and the dReLU mask applied in the
     * input-grad GEMM store (tensor::matmulTransBMask). Set by
     * fusePass(); the trainer dispatches on it.
     */
    bool fused_backward = false;
    /**
     * Interaction-flatten fusion: on the top-MLP layer-0 Gemm node,
     * its input-grad GEMM writes the interaction backward's scattered
     * destinations directly (tensor::matmulTransBSegmented), skipping
     * the intermediate flatten buffer; on the Interaction node, its
     * backward consumes those segment outputs instead of the flatten
     * buffer. Set by fusePass() on both nodes of the pair; the trainer
     * dispatches on it.
     */
    bool fused_flatten = false;
    /**
     * Grouped-lookup nodes (fusePass): the member tables, in merge
     * order. Empty for ordinary nodes. The trainer dispatches a
     * grouped node to Dlrm::forwardEmbeddingGroup over these tables;
     * annotation fields hold the member sums (in this order).
     */
    std::vector<int> fused_tables;

    /**
     * Comm nodes: this shard's fraction of the per-example lookup
     * traffic (shard_access_bytes[s] / total), 1.0 for unsharded ops.
     */
    double share = 0.0;

    /**
     * Predecessors: indices into StepGraph::nodes of the nodes whose
     * outputs this node consumes. Empty = the node is ready at
     * iteration start (consumes only the input batch). Populated by
     * buildModelStepGraph() (compute dataflow) and bindStepGraph()
     * (comm legs + comm->compute joins). Edges may point forward in
     * the nodes vector — only topoOrder() is execution-ordered.
     */
    std::vector<std::size_t> deps;
};

/**
 * Aggregate per-example work totals folded from the graph's nodes.
 * The folds follow the exact accumulation order of
 * DlrmConfig::footprint(), so every field that has a footprint
 * counterpart is bit-identical to it.
 */
struct WorkSummary
{
    double mlp_flops = 0.0;          ///< == footprint().mlp_flops
    double interaction_flops = 0.0;  ///< == footprint().interaction_flops
    double embedding_bytes = 0.0;    ///< == footprint().embedding_bytes
    double embedding_lookups = 0.0;  ///< == footprint().embedding_lookups
    double pooled_bytes = 0.0;       ///< == footprint().pooled_bytes
    double dense_input_bytes = 0.0;  ///< == footprint().dense_input_bytes

    /** Activation + gradient working-set bytes per example (the cost
     *  model's cache-pressure input): (dense in + every MLP layer out +
     *  interaction out) * sizeof(float) * 2. */
    double activation_bytes = 0.0;
    /** Unfused-epilogue traffic per example, summed over Gemm nodes in
     *  node order; zero after fusePass(). */
    double epilogue_traffic_bytes = 0.0;
    /** Unfused *backward*-epilogue + flatten traffic per example,
     *  summed over Gemm and Interaction nodes in node order; zero
     *  after fusePass(). */
    double bwd_epilogue_traffic_bytes = 0.0;
    /** Total dense parameters; == double(DlrmConfig::mlpParams()). */
    double dense_param_count = 0.0;

    /** Hot-tier bytes allocated across EmbeddingLookup nodes. */
    double emb_hot_tier_bytes = 0.0;
    /** Traffic-weighted (by bytes_per_example) hot hit fraction over
     *  all lookup traffic; 0 without a hot tier. */
    double emb_hot_hit_fraction = 0.0;

    std::size_t mlp_layers = 0;        ///< Bottom + top Gemm nodes.
    std::size_t embedding_tables = 0;  ///< EmbeddingLookup nodes.
    std::size_t emb_dim = 0;           ///< Shared embedding width.
};

/** The operator graph of one training iteration. */
struct StepGraph
{
    /** Model name the graph was built from. */
    std::string model_name;
    /** Dense-feature count (bottom-MLP input width). */
    std::size_t num_dense = 0;
    /** Shared embedding dimension. */
    std::size_t emb_dim = 0;

    /**
     * Nodes in forward execution order: bottom_mlp.l*, then per table
     * emb.t* (followed by proj.t* when the table is narrow), then
     * interaction, top_mlp.l*, loss, optimizer. Comm nodes appended by
     * placement::bindStepGraph() follow.
     */
    std::vector<Node> nodes;

    /** Sentinel index for "no such node". */
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** First node with @p id, or nullptr. A linear scan: a bound
     *  graph has at most a few hundred nodes, and consumers look up a
     *  handful of ids per graph. */
    const Node* find(const std::string& id) const;

    /** Index of the first node with @p id, or npos (linear scan). */
    std::size_t indexOf(const std::string& id) const;

    /** Indices of nodes matching a predicate-free (kind) filter. */
    std::vector<std::size_t> indicesOf(NodeKind kind) const;

    /** First Comm node with @p op and @p shard (-1 = any), or null
     *  (linear scan). */
    const Node* findComm(CommOp op, int shard = -1) const;

    std::size_t numNodes() const { return nodes.size(); }

    /**
     * Indices of every node in a topological order of the dep edges.
     * Deterministic: among simultaneously-ready nodes the lowest index
     * comes first (Kahn's algorithm with a min-heap). Panics on a
     * cyclic or malformed graph — call validate() first when the deps
     * are untrusted.
     */
    std::vector<std::size_t> topoOrder() const;

    /**
     * Check the dep edges: every index in range, no self-deps, no
     * duplicate deps, no cycles. Returns an empty string when the
     * graph is valid, else a description of the first problem found.
     */
    std::string validate() const;

    /**
     * Length of the longest path through the dep DAG where node i
     * costs node_seconds[i] (one entry per node): finish(i) =
     * node_seconds[i] + max(finish(dep)), result = max over nodes. With
     * per-node seconds this is the iteration lower bound under perfect
     * overlap — the serial sum divided by it is the graph's inherent
     * parallelism. A memoized walk over the deps; panics, like
     * topoOrder(), on a cycle or an out-of-range dep.
     */
    double criticalPath(const std::vector<double>& node_seconds) const;
};

/**
 * Lower @p config into the compute nodes of one training step. Device
 * and shard fields stay Unassigned / -1 until a placement is bound.
 */
StepGraph buildModelStepGraph(const model::DlrmConfig& config);

/**
 * The forward-only (inference) subgraph of @p graph: every executable
 * compute node (Gemm, EmbeddingLookup, Interaction) with its
 * annotations intact, Loss / OptimizerUpdate / Comm nodes dropped and
 * the dep edges rewired through them (transitively), so a node gated
 * only on a dropped node becomes ready at query start. Node order,
 * ids and work annotations are preserved, which is what lets the
 * serving engine (serve/engine.h) execute the exact forward half the
 * trainer runs and stay bitwise-equal to it.
 */
StepGraph forwardSubgraph(const StepGraph& graph);

/**
 * Operator-fusion rewrite of the IR, in place. Three rewrites:
 *
 *  1. GEMM epilogue fusion, forward and backward: every Gemm node's
 *     bias + activation epilogue is folded into the GEMM store pass —
 *     the node keeps its id (predicted / simulated / measured columns
 *     keep lining up), gains fused_epilogue = true and drops
 *     epilogue_traffic_bytes to zero. The backward stage does the same
 *     for the grad epilogues: fused_backward = true marks that the
 *     bias gradient is accumulated inside the weight-grad GEMM sweep
 *     (tensor::matmulTransABiasGrad) and the dReLU mask is applied
 *     inside the input-grad GEMM store (tensor::matmulTransBMask);
 *     bwd_epilogue_traffic_bytes drops to zero. Execution is bitwise
 *     identical to the unfused passes; only memory traffic changes.
 *
 *  2. Interaction-flatten fusion: the top-MLP layer-0 node and the
 *     Interaction node both gain fused_flatten = true — the layer-0
 *     input-grad GEMM writes the interaction backward's scattered
 *     dense/embedding-grad destinations directly
 *     (tensor::matmulTransBSegmented) and the interaction backward
 *     consumes them there, eliminating the intermediate flatten buffer
 *     and its write + re-read; the Interaction node's
 *     bwd_epilogue_traffic_bytes (that round trip) drops to zero.
 *
 *  3. Embedding-lookup batching: EmbeddingLookup nodes on the same
 *     device are merged (in node order) into one grouped node
 *     "emb.grouped.g{ordinal}" placed at the first member's position,
 *     with fused_tables listing the member tables, annotations summed
 *     in member order, deps the (deduplicated) union of member deps,
 *     and every consumer edge rewired to the group. Groups of one are
 *     left untouched. The trainer runs a grouped node as one flattened
 *     parallelFor over all member (table, example-chunk) units with
 *     per-table chunk geometry unchanged — bitwise identical to the
 *     per-table dispatches — and the cost model / DES price the
 *     saving as one dispatch instead of N.
 *
 * Idempotent: fusing an already-fused graph changes nothing. Comm /
 * Loss / Optimizer nodes and all non-merged annotations are preserved.
 * Aggregate summarize() totals are unchanged (exactly, when each device
 * hosts one group — FP re-association only otherwise).
 */
void fusePass(StepGraph& graph);

/** Fold the graph's annotations into aggregate work totals. */
WorkSummary summarize(const StepGraph& graph);

/** Human-readable names for reporting. */
std::string toString(NodeKind kind);
std::string toString(Device device);

} // namespace graph
} // namespace recsim
