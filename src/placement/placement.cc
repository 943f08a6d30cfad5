#include "placement/placement.h"

#include <algorithm>
#include <numeric>

#include "graph/step_graph.h"
#include "util/logging.h"
#include "util/random.h"

namespace recsim {
namespace placement {

std::string
toString(EmbeddingPlacement placement)
{
    switch (placement) {
      case EmbeddingPlacement::GpuMemory:
        return "gpu_memory";
      case EmbeddingPlacement::HostMemory:
        return "host_memory";
      case EmbeddingPlacement::RemotePs:
        return "remote_ps";
      case EmbeddingPlacement::Hybrid:
        return "hybrid";
      case EmbeddingPlacement::CpuLocal:
        return "cpu_local";
    }
    util::panic("unknown placement enum value");
}

namespace {

double
totalOf(const std::vector<double>& v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/** Per-table costs honoring the serving precision. */
TableCosts
makeCosts(const model::DlrmConfig& config,
          const PlacementOptions& options)
{
    TableCosts costs(config.sparse, config.emb_dim,
                     options.memory_overhead_factor);
    const double factor = options.emb_bytes_per_element / 4.0;
    if (factor != 1.0) {
        for (auto& b : costs.bytes)
            b *= factor;
        for (auto& a : costs.access_bytes)
            a *= factor;
    }
    return costs;
}

PlacementPlan
planGpuMemory(const model::DlrmConfig& config,
              const hw::Platform& platform,
              const PlacementOptions& options)
{
    PlacementPlan plan;
    plan.placement = EmbeddingPlacement::GpuMemory;
    if (platform.num_gpus == 0) {
        plan.feasible = false;
        plan.infeasible_reason = "platform has no GPUs";
        return plan;
    }
    TableCosts costs = makeCosts(config, options);
    const double cap = platform.gpu.mem_capacity *
        options.usable_memory_fraction;

    // Replicate when a full copy fits comfortably on every GPU:
    // lookups stay local and no pooled all-to-all is required.
    const double total = totalOf(costs.bytes);
    if (total <= cap * options.replication_budget_fraction) {
        plan.replicated = true;
        plan.partition = greedyPartition(costs, 1, cap,
                                         options.objective);
        plan.feasible = plan.partition.feasible;
        plan.gpus_used = static_cast<std::size_t>(platform.num_gpus);
        plan.gpu_lookup_fraction = 1.0;
        plan.resident_bytes = total;  // single-copy bytes
        plan.access_imbalance = 1.0;
        return plan;
    }

    // Tables larger than one GPU's budget are split row-wise first
    // (Sec IV-B "row-wise partitioning"), then packed greedily.
    const ChunkedCosts chunked = rowWiseSplitOversized(costs, cap);
    plan.partition = greedyPartition(
        chunked.costs,
        static_cast<std::size_t>(platform.num_gpus) *
            std::max<std::size_t>(options.num_nodes, 1),
        cap, options.objective);
    plan.feasible = plan.partition.feasible;
    plan.infeasible_reason = plan.partition.infeasible_reason;
    plan.gpus_used = plan.partition.shardsUsed();
    plan.gpu_lookup_fraction = 1.0;
    plan.resident_bytes = totalOf(plan.partition.shard_bytes);
    plan.access_imbalance = plan.partition.accessImbalance();
    return plan;
}

PlacementPlan
planHostMemory(const model::DlrmConfig& config,
               const hw::Platform& platform,
               const PlacementOptions& options)
{
    PlacementPlan plan;
    plan.placement = EmbeddingPlacement::HostMemory;
    TableCosts costs = makeCosts(config, options);
    const double cap = platform.host.mem_capacity *
        options.host_usable_memory_fraction;
    plan.partition = greedyPartition(
        costs, std::max<std::size_t>(options.num_nodes, 1), cap,
        options.objective);
    plan.feasible = plan.partition.feasible;
    if (!plan.feasible) {
        plan.infeasible_reason = util::format(
            "{} of tables exceed host memory budget", totalOf(costs.bytes));
    }
    plan.resident_bytes = totalOf(plan.partition.shard_bytes);
    plan.access_imbalance = 1.0;
    return plan;
}

PlacementPlan
planRemotePs(EmbeddingPlacement which, const model::DlrmConfig& config,
             const PlacementOptions& options)
{
    PlacementPlan plan;
    plan.placement = which;
    if (options.num_sparse_ps == 0) {
        plan.feasible = false;
        plan.infeasible_reason = "no sparse parameter servers configured";
        return plan;
    }
    TableCosts costs = makeCosts(config, options);
    // Sparse parameter servers are dual-socket CPU servers; oversized
    // tables split row-wise across servers.
    const double cap = hw::Platform::dualSocketCpu().host.mem_capacity *
        options.host_usable_memory_fraction;
    const ChunkedCosts chunked = rowWiseSplitOversized(costs, cap);
    plan.partition = greedyPartition(chunked.costs,
                                     options.num_sparse_ps, cap,
                                     options.objective);
    plan.feasible = plan.partition.feasible;
    plan.infeasible_reason = plan.partition.infeasible_reason;
    plan.remote_lookup_fraction = 1.0;
    plan.resident_bytes = totalOf(plan.partition.shard_bytes);
    plan.access_imbalance = plan.partition.accessImbalance();
    return plan;
}

PlacementPlan
planHybrid(const model::DlrmConfig& config, const hw::Platform& platform,
           const PlacementOptions& options)
{
    PlacementPlan plan;
    plan.placement = EmbeddingPlacement::Hybrid;
    if (platform.num_gpus == 0) {
        plan.feasible = false;
        plan.infeasible_reason = "platform has no GPUs";
        return plan;
    }
    TableCosts costs = makeCosts(config, options);
    const std::size_t n = costs.bytes.size();
    const double gpu_cap = platform.gpu.mem_capacity *
        options.usable_memory_fraction;
    const double host_cap = platform.host.mem_capacity *
        options.host_usable_memory_fraction;

    // Hottest-first by access density: lookup bytes served per resident
    // byte, so scarce GPU memory buys the most traffic.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return costs.access_bytes[a] / costs.bytes[a] >
                             costs.access_bytes[b] / costs.bytes[b];
                     });

    const auto gpus = static_cast<std::size_t>(platform.num_gpus);
    Partition part;
    part.shard_of.assign(n, -1);
    // Shards [0, gpus) are GPUs; shard gpus is host memory.
    part.shard_bytes.assign(gpus + 1, 0.0);
    part.shard_access_bytes.assign(gpus + 1, 0.0);

    double gpu_access = 0.0, total_access = 0.0;
    for (std::size_t t : order) {
        total_access += costs.access_bytes[t];
        // Lightest GPU shard with room, else host.
        int best = -1;
        for (std::size_t s = 0; s < gpus; ++s) {
            if (part.shard_bytes[s] + costs.bytes[t] > gpu_cap)
                continue;
            if (best < 0 ||
                part.shard_access_bytes[s] <
                    part.shard_access_bytes[static_cast<std::size_t>(
                        best)]) {
                best = static_cast<int>(s);
            }
        }
        std::size_t shard;
        if (best >= 0) {
            shard = static_cast<std::size_t>(best);
            gpu_access += costs.access_bytes[t];
        } else {
            shard = gpus;
            if (part.shard_bytes[gpus] + costs.bytes[t] > host_cap) {
                part.feasible = false;
                part.infeasible_reason =
                    "tables exceed GPU + host memory";
            }
        }
        part.shard_of[t] = static_cast<int>(shard);
        part.shard_bytes[shard] += costs.bytes[t];
        part.shard_access_bytes[shard] += costs.access_bytes[t];
    }

    plan.partition = std::move(part);
    plan.feasible = plan.partition.feasible;
    plan.infeasible_reason = plan.partition.infeasible_reason;
    plan.gpus_used = 0;
    for (std::size_t s = 0; s < gpus; ++s)
        plan.gpus_used += plan.partition.shard_bytes[s] > 0.0;
    plan.gpu_lookup_fraction =
        total_access > 0.0 ? gpu_access / total_access : 0.0;
    plan.resident_bytes = totalOf(plan.partition.shard_bytes);
    plan.access_imbalance = plan.partition.accessImbalance();
    return plan;
}

/**
 * Choose a tier per table under the hot-tier capacity budget. Whole
 * tables are packed hottest-first by access density (the same order
 * planHybrid uses for scarce GPU memory — scarce hot bytes should buy
 * the most traffic); the leftover budget is spread over the remaining
 * tables by traffic share as per-table hot-row caches, whose hit
 * fraction is the Zipf top-mass of the rows they hold. This is the
 * analytic twin of nn::CachedBackend's frequency top-K hot set, so the
 * predicted fractions are directly comparable to measured hit rates.
 */
/**
 * Traffic mass of a table's @p rows hottest rows when raw ids are
 * Zipf-distributed over spec.rawSpace() and folded into hash_size rows
 * by modulo: row r aggregates the mass of every alias r + i*hash_size,
 * so the hottest rows carry the head of each fold segment. Reduces to
 * plain zipfTopMass when rawSpace == hash_size. This is the
 * distribution nn::CachedBackend's frequency-ranked hot set sees on
 * the synthetic trace, so predicted and measured hit rates compare.
 */
double
hotRowsTrafficMass(const data::SparseFeatureSpec& spec, uint64_t rows)
{
    const uint64_t raw = spec.rawSpace();
    const uint64_t n = spec.hash_size;
    if (n == 0 || rows >= n)
        return 1.0;
    double mass = 0.0;
    for (uint64_t base = 0; base < raw; base += n) {
        const uint64_t hi = std::min(base + rows, raw);
        mass += util::zipfTopMass(raw, spec.zipf_exponent, hi) -
            util::zipfTopMass(raw, spec.zipf_exponent, base);
    }
    return std::min(mass, 1.0);
}

void
allocateHotTier(PlacementPlan& plan, const model::DlrmConfig& config,
                const PlacementOptions& options)
{
    const std::size_t n = config.numSparse();
    plan.table_hot_bytes.assign(n, 0.0);
    plan.table_hot_hit_fraction.assign(n, 0.0);
    plan.hot_tier_bytes = 0.0;
    plan.hot_hit_fraction = 0.0;
    if (options.hot_tier_bytes <= 0.0 || n == 0)
        return;
    const TableCosts costs = makeCosts(config, options);

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return costs.access_bytes[a] / costs.bytes[a] >
                             costs.access_bytes[b] / costs.bytes[b];
                     });

    // Phase 1: whole tables, densest first, while they fit.
    double remaining = options.hot_tier_bytes;
    std::vector<std::size_t> partial;
    double partial_access = 0.0;
    for (std::size_t t : order) {
        if (costs.bytes[t] <= remaining) {
            plan.table_hot_bytes[t] = costs.bytes[t];
            plan.table_hot_hit_fraction[t] = 1.0;
            remaining -= costs.bytes[t];
        } else {
            partial.push_back(t);
            partial_access += costs.access_bytes[t];
        }
    }

    // Phase 2: leftover budget as hot-row caches by traffic share.
    if (remaining > 0.0 && partial_access > 0.0) {
        for (std::size_t t : partial) {
            const double share =
                costs.access_bytes[t] / partial_access;
            const double hot =
                std::min(remaining * share, costs.bytes[t]);
            if (hot <= 0.0)
                continue;
            const auto& spec = config.sparse[t];
            // costs.bytes already folds element width and overhead, so
            // the row count is just the resident fraction of the table.
            const auto rows = static_cast<uint64_t>(
                static_cast<double>(spec.hash_size) * hot /
                costs.bytes[t]);
            plan.table_hot_bytes[t] = hot;
            plan.table_hot_hit_fraction[t] =
                hotRowsTrafficMass(spec, rows);
        }
    }

    double total_access = 0.0, hit_access = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
        total_access += costs.access_bytes[t];
        hit_access +=
            costs.access_bytes[t] * plan.table_hot_hit_fraction[t];
        plan.hot_tier_bytes += plan.table_hot_bytes[t];
    }
    plan.hot_hit_fraction =
        total_access > 0.0 ? hit_access / total_access : 0.0;
}

} // namespace

PlacementPlan
planPlacement(EmbeddingPlacement strategy,
              const model::DlrmConfig& config,
              const hw::Platform& platform,
              const PlacementOptions& options)
{
    PlacementPlan plan = [&] {
        switch (strategy) {
          case EmbeddingPlacement::GpuMemory:
            return planGpuMemory(config, platform, options);
          case EmbeddingPlacement::HostMemory:
            return planHostMemory(config, platform, options);
          case EmbeddingPlacement::RemotePs:
          case EmbeddingPlacement::CpuLocal:
            return planRemotePs(strategy, config, options);
          case EmbeddingPlacement::Hybrid:
            return planHybrid(config, platform, options);
        }
        util::panic("unknown placement enum value");
    }();
    if (options.hot_tier_bytes > 0.0)
        allocateHotTier(plan, config, options);
    return plan;
}

PlacementPlan
advisePlacement(const model::DlrmConfig& config,
                const hw::Platform& platform,
                const PlacementOptions& options)
{
    // First-order per-example lookup service time for each strategy;
    // the full iteration model (src/cost) refines this, but the ranking
    // only needs the dominant term of each path.
    const auto fp = config.footprint();
    PlacementPlan best;
    bool have_best = false;
    double best_time = 0.0;

    auto consider = [&](EmbeddingPlacement strategy) {
        PlacementPlan plan = planPlacement(strategy, config, platform,
                                           options);
        if (!plan.feasible)
            return;
        double time = 0.0;
        const double gpu_frac = plan.gpu_lookup_fraction;
        const double host_frac = 1.0 - gpu_frac -
            plan.remote_lookup_fraction;
        if (gpu_frac > 0.0) {
            const double shards = static_cast<double>(
                std::max<std::size_t>(plan.gpus_used, 1));
            time += gpu_frac * fp.embedding_bytes /
                (platform.gpu.gatherBandwidth() * shards);
            // Pooled vectors cross the GPU interconnect.
            time += gpu_frac * fp.pooled_bytes /
                std::max(platform.gpu_interconnect.bandwidth, 1.0);
        }
        if (host_frac > 0.0) {
            time += host_frac * fp.embedding_bytes /
                platform.host.gatherBandwidth();
            time += host_frac * fp.pooled_bytes /
                std::max(platform.host_gpu.bandwidth, 1.0);
        }
        if (plan.remote_lookup_fraction > 0.0) {
            time += plan.remote_lookup_fraction * 2.0 *
                fp.pooled_bytes / platform.network.bandwidth;
            time += platform.network.latency;
        }
        if (!have_best || time < best_time) {
            best = std::move(plan);
            best_time = time;
            have_best = true;
        }
    };

    consider(EmbeddingPlacement::GpuMemory);
    consider(EmbeddingPlacement::HostMemory);
    consider(EmbeddingPlacement::Hybrid);
    if (!have_best)
        return planPlacement(EmbeddingPlacement::RemotePs, config,
                             platform, options);
    return best;
}

void
bindStepGraph(graph::StepGraph& g, const PlacementPlan& plan,
              std::size_t num_sparse_ps)
{
    using graph::CommOp;
    using graph::Device;
    using graph::Node;
    using graph::NodeKind;

    // At most five legs per PS shard plus five unsharded comm nodes.
    g.nodes.reserve(g.nodes.size() + 5 * num_sparse_ps + 5);

    // Dense compute (gemms, interaction, loss, optimizer) runs on the
    // trainer CPU in the distributed-CPU system and on the GPU
    // otherwise.
    const Device compute_device =
        plan.placement == EmbeddingPlacement::CpuLocal
        ? Device::TrainerCpu : Device::Gpu;
    for (auto& node : g.nodes) {
        if (node.kind == NodeKind::Gemm ||
            node.kind == NodeKind::Interaction ||
            node.kind == NodeKind::Loss ||
            node.kind == NodeKind::OptimizerUpdate) {
            node.device = compute_device;
        }
    }

    // Device (and, where the partition maps tables 1:1, shard) of every
    // embedding node.
    const bool table_shards =
        plan.partition.shard_of.size() ==
        static_cast<std::size_t>(std::count_if(
            g.nodes.begin(), g.nodes.end(), [](const Node& n) {
                return n.kind == NodeKind::EmbeddingLookup;
            }));
    const auto gpu_shards = plan.placement == EmbeddingPlacement::Hybrid
        ? plan.partition.numShards() - 1 : plan.partition.numShards();
    for (auto& node : g.nodes) {
        if (node.kind != NodeKind::EmbeddingLookup)
            continue;
        switch (plan.placement) {
          case EmbeddingPlacement::GpuMemory:
            node.device = Device::Gpu;
            break;
          case EmbeddingPlacement::HostMemory:
            node.device = Device::HostCpu;
            break;
          case EmbeddingPlacement::RemotePs:
          case EmbeddingPlacement::CpuLocal:
            node.device = Device::SparsePs;
            break;
          case EmbeddingPlacement::Hybrid: {
            const int s = table_shards
                ? plan.partition.shard_of[static_cast<std::size_t>(
                      node.table)]
                : -1;
            node.device = s >= 0 &&
                    static_cast<std::size_t>(s) < gpu_shards
                ? Device::Gpu : Device::HostCpu;
            break;
          }
        }
        if (table_shards) {
            node.shard = plan.partition.shard_of[
                static_cast<std::size_t>(node.table)];
        }
        // Tier split chosen by the planner (allocateHotTier). The
        // guard keeps graphs for plans without a hot tier untouched.
        if (node.table >= 0 &&
            static_cast<std::size_t>(node.table) <
                plan.table_hot_bytes.size()) {
            const auto t = static_cast<std::size_t>(node.table);
            node.hot_tier_bytes = plan.table_hot_bytes[t];
            node.hot_hit_fraction = plan.table_hot_hit_fraction[t];
        }
    }

    // This fold (order and the 1e-9 floor) matches the DES's original
    // per-shard share computation exactly.
    double total_access = 0.0;
    for (double a : plan.partition.shard_access_bytes)
        total_access += a;
    total_access = std::max(total_access, 1e-9);

    // Anchor nodes the comm edges attach to. The interaction node is
    // where remotely-pooled embeddings join the compute dataflow; the
    // optimizer is what gradient traffic waits on.
    const std::size_t interaction_idx =
        g.indexOf("interaction");
    const std::size_t optimizer_idx = g.indexOf("optimizer");
    RECSIM_ASSERT(interaction_idx != graph::StepGraph::npos &&
                  optimizer_idx != graph::StepGraph::npos,
                  "bindStepGraph needs a model-built StepGraph");

    auto addComm = [&g](std::string id, CommOp op, Device device,
                        int shard, double share,
                        std::vector<std::size_t> deps) {
        Node node;
        node.id = std::move(id);
        node.kind = NodeKind::Comm;
        node.comm = op;
        node.device = device;
        node.shard = shard;
        node.share = share;
        node.deps = std::move(deps);
        g.nodes.push_back(std::move(node));
        return g.nodes.size() - 1;
    };
    // One RPC chain per sparse-PS shard, request -> gather -> pool ->
    // response; the chains are mutually independent. Returns the
    // response indices so the caller can join them into the compute
    // dataflow (interaction on CPU, deserialize on GPU).
    auto addPsShards = [&](bool with_push,
                           std::vector<std::size_t> request_deps) {
        std::vector<std::size_t> responses;
        for (std::size_t i = 0; i < num_sparse_ps; ++i) {
            const double share = i < plan.partition.numShards()
                ? plan.partition.shard_access_bytes[i] / total_access
                : 0.0;
            const std::string s = ".s" + std::to_string(i);
            const int shard = static_cast<int>(i);
            std::size_t leg = addComm(
                "comm.ps_request" + s, CommOp::PsRequest,
                Device::TrainerCpu, shard, share, request_deps);
            leg = addComm("comm.ps_gather" + s, CommOp::PsGather,
                          Device::SparsePs, shard, share, {leg});
            leg = addComm("comm.ps_pool" + s, CommOp::PsPool,
                          Device::SparsePs, shard, share, {leg});
            leg = addComm("comm.ps_response" + s, CommOp::PsResponse,
                          Device::SparsePs, shard, share, {leg});
            responses.push_back(leg);
            if (with_push) {
                addComm("comm.grad_push" + s, CommOp::GradPush,
                        Device::TrainerCpu, shard, share,
                        {optimizer_idx});
            }
        }
        return responses;
    };

    if (plan.placement == EmbeddingPlacement::CpuLocal) {
        // CPU distributed training: per-shard PS RPC legs plus the
        // amortized dense-PS sync. The pooled vectors arrive over RPC,
        // so the interaction joins on every shard's response — that
        // edge is what lets the bottom MLP overlap the sparse comm.
        const auto responses =
            addPsShards(/*with_push=*/true, /*request_deps=*/{});
        for (std::size_t r : responses)
            g.nodes[interaction_idx].deps.push_back(r);
        addComm("comm.dense_sync", CommOp::DenseSync, Device::DensePs,
                -1, 1.0, {optimizer_idx});
        return;
    }

    // GPU-server training. Everything downstream of the batch waits on
    // the input pipeline.
    const std::size_t input_idx = addComm(
        "comm.input", CommOp::Input, Device::HostCpu, -1, 1.0, {});
    std::vector<std::size_t> gpu_embs, host_embs;
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
        Node& node = g.nodes[i];
        const bool roots_on_input =
            (node.kind == NodeKind::Gemm &&
             node.role == graph::GemmRole::BottomMlp &&
             node.layer == 0) ||
            node.kind == NodeKind::EmbeddingLookup;
        if (roots_on_input)
            node.deps.push_back(input_idx);
        if (node.kind == NodeKind::EmbeddingLookup) {
            (node.device == Device::Gpu ? gpu_embs : host_embs)
                .push_back(i);
        }
    }
    const double frac_host = std::max(
        0.0, 1.0 - plan.gpu_lookup_fraction - plan.remote_lookup_fraction);
    if (plan.gpu_lookup_fraction > 0.0) {
        if (gpu_embs.empty())
            gpu_embs.push_back(input_idx);
        const std::size_t a2a = addComm(
            "comm.emb_alltoall", CommOp::AllToAll, Device::Gpu, -1,
            plan.gpu_lookup_fraction, std::move(gpu_embs));
        g.nodes[interaction_idx].deps.push_back(a2a);
    }
    if (frac_host > 0.0) {
        if (host_embs.empty())
            host_embs.push_back(input_idx);
        const std::size_t pcie = addComm(
            "comm.host_pcie", CommOp::PcieStage, Device::HostCpu, -1,
            frac_host, std::move(host_embs));
        g.nodes[interaction_idx].deps.push_back(pcie);
    }
    if (plan.remote_lookup_fraction > 0.0) {
        const auto responses =
            addPsShards(/*with_push=*/false,
                        /*request_deps=*/{input_idx});
        const std::size_t deser = addComm(
            "comm.remote_deser", CommOp::Deserialize, Device::HostCpu,
            -1, plan.remote_lookup_fraction, responses);
        g.nodes[interaction_idx].deps.push_back(deser);
    }
    addComm("comm.allreduce", CommOp::AllReduce, Device::Gpu, -1, 1.0,
            {optimizer_idx});
}

} // namespace placement
} // namespace recsim
