#include "graph/step_graph.h"

#include <algorithm>
#include <queue>

#include "util/logging.h"

namespace recsim {
namespace graph {

const Node*
StepGraph::find(const std::string& id) const
{
    const std::size_t i = indexOf(id);
    return i == npos ? nullptr : &nodes[i];
}

std::size_t
StepGraph::indexOf(const std::string& id) const
{
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].id == id)
            return i;
    }
    return npos;
}

std::vector<std::size_t>
StepGraph::indicesOf(NodeKind kind) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].kind == kind)
            out.push_back(i);
    }
    return out;
}

const Node*
StepGraph::findComm(CommOp op, int shard) const
{
    for (const auto& node : nodes) {
        if (node.kind == NodeKind::Comm && node.comm == op &&
            (shard < 0 || node.shard == shard)) {
            return &node;
        }
    }
    return nullptr;
}

std::vector<std::size_t>
StepGraph::topoOrder() const
{
    const std::size_t n = nodes.size();
    std::vector<std::size_t> indegree(n, 0);
    std::vector<std::vector<std::size_t>> successors(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t d : nodes[i].deps) {
            RECSIM_ASSERT(d < n, "StepGraph dep index out of range");
            ++indegree[i];
            successors[d].push_back(i);
        }
    }
    // Min-heap on the node index makes the order deterministic and
    // keeps simultaneously-ready nodes in build order.
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        std::greater<std::size_t>> ready;
    for (std::size_t i = 0; i < n; ++i) {
        if (indegree[i] == 0)
            ready.push(i);
    }
    std::vector<std::size_t> order;
    order.reserve(n);
    while (!ready.empty()) {
        const std::size_t i = ready.top();
        ready.pop();
        order.push_back(i);
        for (std::size_t s : successors[i]) {
            if (--indegree[s] == 0)
                ready.push(s);
        }
    }
    RECSIM_ASSERT(order.size() == n,
                  "StepGraph has a dependency cycle");
    return order;
}

std::string
StepGraph::validate() const
{
    const std::size_t n = nodes.size();
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<std::size_t> seen;
        for (std::size_t d : nodes[i].deps) {
            if (d >= n) {
                return "node '" + nodes[i].id + "' dep " +
                    std::to_string(d) + " out of range (" +
                    std::to_string(n) + " nodes)";
            }
            if (d == i)
                return "node '" + nodes[i].id + "' depends on itself";
            seen.push_back(d);
        }
        std::sort(seen.begin(), seen.end());
        if (std::adjacent_find(seen.begin(), seen.end()) != seen.end())
            return "node '" + nodes[i].id + "' has a duplicate dep";
    }
    // Kahn count check (edges validated above, so no asserts fire).
    std::vector<std::size_t> indegree(n, 0);
    std::vector<std::vector<std::size_t>> successors(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t d : nodes[i].deps) {
            ++indegree[i];
            successors[d].push_back(i);
        }
    }
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < n; ++i) {
        if (indegree[i] == 0)
            frontier.push_back(i);
    }
    std::size_t visited = 0;
    while (!frontier.empty()) {
        const std::size_t i = frontier.back();
        frontier.pop_back();
        ++visited;
        for (std::size_t s : successors[i]) {
            if (--indegree[s] == 0)
                frontier.push_back(s);
        }
    }
    if (visited != n) {
        for (std::size_t i = 0; i < n; ++i) {
            if (indegree[i] > 0) {
                return "dependency cycle through node '" + nodes[i].id +
                    "'";
            }
        }
    }
    return "";
}

double
StepGraph::criticalPath(const std::vector<double>& node_seconds) const
{
    RECSIM_ASSERT(node_seconds.size() == nodes.size(),
                  "criticalPath needs one cost per node ({} for {} nodes)",
                  node_seconds.size(), nodes.size());
    // Memoized depth-first walk over the deps. max is exact, so it gives
    // the bits of a finish-time fold in topological order. state: 0 not
    // reached, 1 on the current walk (reaching it again is a cycle),
    // 2 finished.
    std::vector<double> finish(nodes.size(), 0.0);
    std::vector<unsigned char> state(nodes.size(), 0);
    auto walk = [&](auto& self, std::size_t i) -> double {
        if (state[i] == 2)
            return finish[i];
        RECSIM_ASSERT(state[i] == 0, "StepGraph has a dependency cycle");
        state[i] = 1;
        double start = 0.0;
        for (std::size_t d : nodes[i].deps) {
            RECSIM_ASSERT(d < nodes.size(),
                          "StepGraph dep index out of range");
            start = std::max(start, self(self, d));
        }
        state[i] = 2;
        return finish[i] = start + node_seconds[i];
    };
    double longest = 0.0;
    for (std::size_t i = 0; i < nodes.size(); ++i)
        longest = std::max(longest, walk(walk, i));
    return longest;
}

StepGraph
buildModelStepGraph(const model::DlrmConfig& config)
{
    StepGraph g;
    g.model_name = config.name;
    g.num_dense = config.num_dense;
    g.emb_dim = config.emb_dim;
    const auto bottom_dims = config.bottomDims();
    const auto top_dims = config.topDims();
    // Layers, tables with at most one projection each, interaction,
    // loss and optimizer.
    g.nodes.reserve(bottom_dims.size() + 2 * config.sparse.size() +
                    top_dims.size() + 3);

    // The per-node work annotations below use the exact expressions of
    // DlrmConfig::footprint() / mlpParams() / placement::TableCosts so
    // that summarize() and the per-table cost derivations reproduce the
    // pre-graph values bit for bit.

    auto addGemm = [&g](GemmRole role, const char* prefix, int layer,
                        std::size_t in, std::size_t out, bool relu,
                        std::vector<std::size_t> deps) {
        Node node;
        node.id = std::string(prefix) + ".l" + std::to_string(layer);
        node.kind = NodeKind::Gemm;
        node.role = role;
        node.layer = layer;
        node.in_width = in;
        node.out_width = out;
        node.fwd_flops = 2.0 * static_cast<double>(in) *
            static_cast<double>(out);
        node.param_count = static_cast<double>(in * out + out);
        node.param_bytes = node.param_count * sizeof(float);
        // Unfused epilogue traffic: one read+write pass over the
        // [B, out] output for the bias add, a second for the ReLU
        // (hidden layers only — the last layer of each MLP has none).
        node.epilogue_traffic_bytes = (relu ? 4.0 : 2.0) *
            static_cast<double>(out) * sizeof(float);
        // Unfused backward-epilogue traffic: the bias-grad sumRows
        // re-reads dy [B, out]; hidden layers (layer > 0 — the mask is
        // the *previous* layer's activation) also pay reluBackward's
        // read+write of the input gradient [B, in].
        node.bwd_epilogue_traffic_bytes =
            (static_cast<double>(out) +
             (layer > 0 ? 2.0 * static_cast<double>(in) : 0.0)) *
            sizeof(float);
        node.deps = std::move(deps);
        g.nodes.push_back(std::move(node));
        return g.nodes.size() - 1;
    };

    // Bottom MLP (including the implicit projection to emb_dim). The
    // layers chain; l0 consumes only the input batch.
    std::size_t last_bottom = StepGraph::npos;
    {
        const auto& dims = bottom_dims;
        std::size_t in = config.num_dense;
        for (std::size_t l = 0; l < dims.size(); ++l) {
            last_bottom = addGemm(
                GemmRole::BottomMlp, "bottom_mlp", static_cast<int>(l),
                in, dims[l], /*relu=*/l + 1 < dims.size(),
                last_bottom == StepGraph::npos
                    ? std::vector<std::size_t>{}
                    : std::vector<std::size_t>{last_bottom});
            in = dims[l];
        }
    }

    // Embedding tables, each followed by its mixed-dimension projection
    // when the table is narrower than the shared width. Every table
    // depends only on the input batch, so lookups are mutually
    // independent and independent of the bottom MLP — the parallelism
    // the paper's Figs 9-11 breakdowns presume.
    std::vector<std::size_t> pooled_producers;
    pooled_producers.reserve(config.sparse.size());
    for (std::size_t t = 0; t < config.sparse.size(); ++t) {
        const auto& spec = config.sparse[t];
        const std::size_t dim = spec.effectiveDim(config.emb_dim);
        const auto d = static_cast<double>(dim);
        Node node;
        node.id = "emb.t" + std::to_string(t);
        node.kind = NodeKind::EmbeddingLookup;
        node.table = static_cast<int>(t);
        node.out_width = dim;
        node.rows = spec.hash_size;
        node.zipf_exponent = spec.zipf_exponent;
        node.lookups_per_example = spec.effectiveMeanLength();
        node.bytes_per_example =
            spec.effectiveMeanLength() * d * sizeof(float);
        node.pooled_bytes_per_example = d * sizeof(float);
        node.param_bytes =
            static_cast<double>(spec.hash_size) * d * sizeof(float);
        g.nodes.push_back(std::move(node));
        const std::size_t emb_index = g.nodes.size() - 1;
        std::size_t producer = emb_index;

        if (dim != config.emb_dim) {
            Node proj;
            proj.id = "proj.t" + std::to_string(t);
            proj.kind = NodeKind::Gemm;
            proj.role = GemmRole::Projection;
            proj.table = static_cast<int>(t);
            proj.in_width = dim;
            proj.out_width = config.emb_dim;
            proj.fwd_flops =
                2.0 * d * static_cast<double>(config.emb_dim);
            proj.param_count = static_cast<double>(
                dim * config.emb_dim + config.emb_dim);
            proj.param_bytes = proj.param_count * sizeof(float);
            // Bias-only epilogue: projections have no activation.
            proj.epilogue_traffic_bytes =
                2.0 * static_cast<double>(config.emb_dim) *
                sizeof(float);
            // Backward: only the bias-grad sumRows re-read of dy
            // (projections have no ReLU, so no mask pass to save).
            proj.bwd_epilogue_traffic_bytes =
                static_cast<double>(config.emb_dim) * sizeof(float);
            proj.deps = {emb_index};
            g.nodes.push_back(std::move(proj));
            producer = g.nodes.size() - 1;
        }
        pooled_producers.push_back(producer);
    }

    // Feature interaction: joins the bottom-MLP output with every
    // pooled (and, where present, projected) embedding, in table order.
    {
        Node node;
        node.id = "interaction";
        node.kind = NodeKind::Interaction;
        node.in_width = config.emb_dim;
        node.out_width = config.interactionWidth();
        if (config.interaction == nn::InteractionKind::DotProduct) {
            const auto f = static_cast<double>(config.numSparse() + 1);
            node.fwd_flops = f * (f - 1.0) / 2.0 * 2.0 *
                static_cast<double>(config.emb_dim);
        }
        // Flatten-buffer traffic the interaction-flatten fusion
        // removes. Concat: the whole [B, W] flatten buffer is written
        // by the top-MLP layer-0 input-grad GEMM and re-read by the
        // memcpy split (one round trip, 2 * W * 4). Dot: the dense
        // pass-through's zero + read-modify-write of d_dense
        // (~4 * emb_dim * 4) — the pairs stay a compact read either
        // way.
        node.bwd_epilogue_traffic_bytes =
            (config.interaction == nn::InteractionKind::DotProduct
                 ? 4.0 * static_cast<double>(config.emb_dim)
                 : 2.0 * static_cast<double>(
                       config.interactionWidth())) *
            sizeof(float);
        if (last_bottom != StepGraph::npos)
            node.deps.push_back(last_bottom);
        for (std::size_t p : pooled_producers)
            node.deps.push_back(p);
        g.nodes.push_back(std::move(node));
    }
    std::size_t prev = g.nodes.size() - 1;  // interaction

    // Top MLP (including the implicit 1-wide logit layer).
    {
        const auto& dims = top_dims;
        std::size_t in = config.interactionWidth();
        for (std::size_t l = 0; l < dims.size(); ++l) {
            prev = addGemm(GemmRole::TopMlp, "top_mlp",
                           static_cast<int>(l), in, dims[l],
                           /*relu=*/l + 1 < dims.size(), {prev});
            in = dims[l];
        }
    }

    // Loss + optimizer close the step.
    {
        Node loss;
        loss.id = "loss";
        loss.kind = NodeKind::Loss;
        loss.in_width = 1;
        loss.deps = {prev};
        g.nodes.push_back(std::move(loss));

        Node opt;
        opt.id = "optimizer";
        opt.kind = NodeKind::OptimizerUpdate;
        opt.deps = {g.nodes.size() - 1};
        g.nodes.push_back(std::move(opt));
    }
    return g;
}

StepGraph
forwardSubgraph(const StepGraph& graph)
{
    const std::string problem = graph.validate();
    RECSIM_ASSERT(problem.empty(), "invalid StepGraph: {}", problem);

    const std::size_t n = graph.nodes.size();
    std::vector<char> kept(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const NodeKind kind = graph.nodes[i].kind;
        kept[i] = (kind == NodeKind::Gemm ||
                   kind == NodeKind::EmbeddingLookup ||
                   kind == NodeKind::Interaction)
            ? 1
            : 0;
    }

    // Effective deps of each node: its kept ancestors, looking through
    // dropped nodes (same closure the GraphExecutor takes over
    // non-executable nodes, so the subgraph schedules identically).
    const auto order = graph.topoOrder();
    std::vector<std::vector<std::size_t>> eff(n);
    for (std::size_t i : order) {
        std::vector<std::size_t> e;
        for (std::size_t d : graph.nodes[i].deps) {
            if (kept[d])
                e.push_back(d);
            else
                e.insert(e.end(), eff[d].begin(), eff[d].end());
        }
        std::sort(e.begin(), e.end());
        e.erase(std::unique(e.begin(), e.end()), e.end());
        eff[i] = std::move(e);
    }

    StepGraph g;
    g.model_name = graph.model_name;
    g.num_dense = graph.num_dense;
    g.emb_dim = graph.emb_dim;
    // Two passes because dep edges may point forward in the nodes
    // vector: first assign the compacted indices, then rewire.
    std::vector<std::size_t> new_index(n, StepGraph::npos);
    for (std::size_t i = 0; i < n; ++i) {
        if (!kept[i])
            continue;
        new_index[i] = g.nodes.size();
        g.nodes.push_back(graph.nodes[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (!kept[i])
            continue;
        Node& node = g.nodes[new_index[i]];
        node.deps.clear();
        node.deps.reserve(eff[i].size());
        for (std::size_t d : eff[i])
            node.deps.push_back(new_index[d]);
    }
    return g;
}

WorkSummary
summarize(const StepGraph& graph)
{
    WorkSummary s;
    s.emb_dim = graph.emb_dim;

    // MLP FLOPs: bottom sum + top sum, then projections in table order
    // — the accumulation order of DlrmConfig::footprint().
    double bottom_flops = 0.0, top_flops = 0.0;
    double act_bytes =
        static_cast<double>(graph.num_dense) * sizeof(float);
    for (const auto& node : graph.nodes) {
        if (node.kind != NodeKind::Gemm)
            continue;
        if (node.role == GemmRole::BottomMlp) {
            bottom_flops += node.fwd_flops;
            act_bytes +=
                static_cast<double>(node.out_width) * sizeof(float);
            ++s.mlp_layers;
        } else if (node.role == GemmRole::TopMlp) {
            top_flops += node.fwd_flops;
            ++s.mlp_layers;
        }
    }
    s.mlp_flops = bottom_flops + top_flops;

    for (const auto& node : graph.nodes) {
        switch (node.kind) {
          case NodeKind::Gemm:
            s.dense_param_count += node.param_count;
            s.epilogue_traffic_bytes += node.epilogue_traffic_bytes;
            s.bwd_epilogue_traffic_bytes +=
                node.bwd_epilogue_traffic_bytes;
            if (node.role == GemmRole::Projection)
                s.mlp_flops += node.fwd_flops;
            break;
          case NodeKind::EmbeddingLookup:
            s.embedding_lookups += node.lookups_per_example;
            s.embedding_bytes += node.bytes_per_example;
            s.pooled_bytes += node.pooled_bytes_per_example;
            s.emb_hot_tier_bytes += node.hot_tier_bytes;
            s.emb_hot_hit_fraction +=
                node.hot_hit_fraction * node.bytes_per_example;
            ++s.embedding_tables;
            break;
          case NodeKind::Interaction:
            s.interaction_flops = node.fwd_flops;
            s.bwd_epilogue_traffic_bytes +=
                node.bwd_epilogue_traffic_bytes;
            act_bytes +=
                static_cast<double>(node.out_width) * sizeof(float);
            break;
          default:
            break;
        }
    }
    // dense_param_count so far misses nothing: bottom + top + proj
    // Gemm nodes are all counted above, matching mlpParams().

    // Top-MLP activations follow the interaction in the working set.
    for (const auto& node : graph.nodes) {
        if (node.kind == NodeKind::Gemm && node.role == GemmRole::TopMlp)
            act_bytes +=
                static_cast<double>(node.out_width) * sizeof(float);
    }
    s.activation_bytes = act_bytes * 2.0;  // forward acts + grads

    s.dense_input_bytes =
        static_cast<double>(graph.num_dense) * sizeof(float);
    // Normalize the traffic-weighted hot hit fraction accumulated per
    // lookup node above (weight = lookup bytes per example).
    s.emb_hot_hit_fraction = s.embedding_bytes > 0.0
        ? s.emb_hot_hit_fraction / s.embedding_bytes : 0.0;
    return s;
}

void
fusePass(StepGraph& g)
{
    const std::string problem = g.validate();
    RECSIM_ASSERT(problem.empty(), "invalid StepGraph: {}", problem);

    // 1. GEMM epilogue fusion, forward + backward. Annotation-level:
    // the node keeps its id and FLOPs (the arithmetic is unchanged —
    // the bias/activation/grad-epilogue ops just move into the GEMM
    // stores), only the extra epilogue memory passes disappear.
    // 2. Interaction-flatten fusion: marked on both ends of the pair —
    // the top-MLP layer-0 Gemm (its input-grad GEMM writes the
    // interaction backward's destinations directly) and the
    // Interaction node (its backward consumes them there); the flatten
    // round trip the Interaction node was annotated with disappears.
    for (auto& node : g.nodes) {
        if (node.kind == NodeKind::Gemm) {
            node.fused_epilogue = true;
            node.epilogue_traffic_bytes = 0.0;
            node.fused_backward = true;
            node.bwd_epilogue_traffic_bytes = 0.0;
            if (node.role == GemmRole::TopMlp && node.layer == 0)
                node.fused_flatten = true;
        } else if (node.kind == NodeKind::Interaction) {
            node.fused_flatten = true;
            node.bwd_epilogue_traffic_bytes = 0.0;
        }
    }

    // 3. Batch EmbeddingLookup nodes into per-device grouped nodes.
    // Grouping by device only (never by shard) keeps the grouped id
    // identical between a bound graph (tables spread over PS shards)
    // and the trainer's unbound graph, so the three columns of
    // validation_graph_breakdown keep sharing node ids.
    const std::size_t n = g.nodes.size();
    std::vector<Device> group_devices;
    std::vector<std::vector<std::size_t>> members;
    std::vector<std::size_t> member_group(n, StepGraph::npos);
    for (std::size_t i = 0; i < n; ++i) {
        if (g.nodes[i].kind != NodeKind::EmbeddingLookup)
            continue;
        std::size_t gi = 0;
        while (gi < group_devices.size() &&
               group_devices[gi] != g.nodes[i].device)
            ++gi;
        if (gi == group_devices.size()) {
            group_devices.push_back(g.nodes[i].device);
            members.emplace_back();
        }
        members[gi].push_back(i);
        member_group[i] = gi;
    }

    // Groups of one (including already-grouped nodes on a re-run) are
    // left untouched — that is what makes the pass idempotent.
    std::vector<char> is_first(n, 0), dropped(n, 0);
    bool any_merge = false;
    for (const auto& mem : members) {
        if (mem.size() < 2)
            continue;
        any_merge = true;
        is_first[mem[0]] = 1;
        for (std::size_t j = 1; j < mem.size(); ++j)
            dropped[mem[j]] = 1;
    }
    if (!any_merge)
        return;

    // Two passes, like forwardSubgraph(): dep edges may point forward
    // in the nodes vector, so first place the surviving nodes and
    // assign compacted indices, then rewire every edge.
    std::vector<Node> out;
    out.reserve(n);
    std::vector<std::size_t> new_index(n, StepGraph::npos);
    std::size_t ordinal = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (dropped[i])
            continue;
        new_index[i] = out.size();
        if (!is_first[i]) {
            out.push_back(g.nodes[i]);
            continue;
        }
        const auto& mem = members[member_group[i]];
        Node grouped;
        grouped.id = "emb.grouped.g" + std::to_string(ordinal++);
        grouped.kind = NodeKind::EmbeddingLookup;
        grouped.device = g.nodes[i].device;
        int shard = g.nodes[mem[0]].shard;
        for (std::size_t j : mem) {
            if (g.nodes[j].shard != shard)
                shard = -1;  // members span shards
        }
        grouped.shard = shard;
        // Annotations are the member sums, in member (= node) order;
        // per-table fields (rows, zipf, out_width) have no grouped
        // meaning and stay at their zero defaults — consumers that
        // need them (cost::remoteCacheHitFraction) read the model
        // config, not the graph.
        // Tier split: bytes sum; the hit fraction is the traffic-
        // weighted mean over members (weight = lookup bytes per
        // example), so the grouped node charges the same per-tier
        // byte split as its members did individually.
        double hot_weighted = 0.0;
        for (std::size_t j : mem) {
            const Node& mn = g.nodes[j];
            grouped.lookups_per_example += mn.lookups_per_example;
            grouped.bytes_per_example += mn.bytes_per_example;
            grouped.pooled_bytes_per_example +=
                mn.pooled_bytes_per_example;
            grouped.param_bytes += mn.param_bytes;
            grouped.hot_tier_bytes += mn.hot_tier_bytes;
            hot_weighted += mn.hot_hit_fraction * mn.bytes_per_example;
            if (mn.fused_tables.empty()) {
                grouped.fused_tables.push_back(mn.table);
            } else {
                grouped.fused_tables.insert(grouped.fused_tables.end(),
                                            mn.fused_tables.begin(),
                                            mn.fused_tables.end());
            }
            // Union of member deps (old indices; rewired below).
            for (std::size_t d : mn.deps)
                grouped.deps.push_back(d);
        }
        if (grouped.bytes_per_example > 0.0)
            grouped.hot_hit_fraction =
                hot_weighted / grouped.bytes_per_example;
        out.push_back(std::move(grouped));
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (dropped[i])
            continue;
        Node& node = out[new_index[i]];
        const std::vector<std::size_t> old = std::move(node.deps);
        node.deps.clear();
        for (std::size_t d : old) {
            const std::size_t nd = dropped[d] || is_first[d]
                ? new_index[members[member_group[d]][0]]
                : new_index[d];
            if (nd == new_index[i])
                continue;  // edge between merged members
            if (std::find(node.deps.begin(), node.deps.end(), nd) ==
                node.deps.end())
                node.deps.push_back(nd);
        }
    }
    g.nodes = std::move(out);
}

std::string
toString(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Gemm:
        return "gemm";
      case NodeKind::EmbeddingLookup:
        return "embedding_lookup";
      case NodeKind::Interaction:
        return "interaction";
      case NodeKind::Loss:
        return "loss";
      case NodeKind::OptimizerUpdate:
        return "optimizer_update";
      case NodeKind::Comm:
        return "comm";
    }
    util::panic("unknown NodeKind");
}

std::string
toString(Device device)
{
    switch (device) {
      case Device::Unassigned:
        return "unassigned";
      case Device::TrainerCpu:
        return "trainer_cpu";
      case Device::Gpu:
        return "gpu";
      case Device::HostCpu:
        return "host_cpu";
      case Device::SparsePs:
        return "sparse_ps";
      case Device::DensePs:
        return "dense_ps";
    }
    util::panic("unknown Device");
}

} // namespace graph
} // namespace recsim
