/**
 * @file
 * Tests of the StepGraph IR (src/graph): the builder lowers a
 * DlrmConfig into typed per-step operator nodes, summarize() reproduces
 * DlrmConfig::footprint() bit for bit (the cost model depends on it),
 * and placement::bindStepGraph attaches devices, shards and traffic
 * shares the way the DES expects.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cost/iteration_model.h"
#include "graph/step_graph.h"
#include "model/config.h"
#include "placement/placement.h"

namespace recsim {
namespace {

using graph::NodeKind;

TEST(StepGraph, BuildsOneNodePerOperator)
{
    const auto m = model::DlrmConfig::testSuite(128, 6, 50000);
    const auto g = graph::buildModelStepGraph(m);

    EXPECT_EQ(g.indicesOf(NodeKind::EmbeddingLookup).size(),
              m.numSparse());
    const std::size_t gemms = g.indicesOf(NodeKind::Gemm).size();
    EXPECT_EQ(gemms, m.bottomDims().size() + m.topDims().size());
    EXPECT_EQ(g.indicesOf(NodeKind::Interaction).size(), 1u);
    EXPECT_EQ(g.indicesOf(NodeKind::Loss).size(), 1u);
    EXPECT_EQ(g.indicesOf(NodeKind::OptimizerUpdate).size(), 1u);

    // Ids are the stable cross-consumer keys.
    EXPECT_NE(g.find("bottom_mlp.l0"), nullptr);
    EXPECT_NE(g.find("emb.t5"), nullptr);
    EXPECT_NE(g.find("interaction"), nullptr);
    EXPECT_NE(g.find("optimizer"), nullptr);
    EXPECT_EQ(g.find("emb.t6"), nullptr);
}

TEST(StepGraph, SummarizeMatchesFootprintBitForBit)
{
    for (const auto& m : {model::DlrmConfig::testSuite(256, 8, 100000),
                          model::DlrmConfig::m1Prod(),
                          model::DlrmConfig::m2Prod(),
                          model::DlrmConfig::m3Prod()}) {
        const auto fp = m.footprint();
        const auto s = graph::summarize(graph::buildModelStepGraph(m));
        EXPECT_EQ(s.mlp_flops, fp.mlp_flops) << m.name;
        EXPECT_EQ(s.interaction_flops, fp.interaction_flops) << m.name;
        EXPECT_EQ(s.embedding_bytes, fp.embedding_bytes) << m.name;
        EXPECT_EQ(s.embedding_lookups, fp.embedding_lookups) << m.name;
        EXPECT_EQ(s.pooled_bytes, fp.pooled_bytes) << m.name;
        EXPECT_EQ(s.dense_input_bytes, fp.dense_input_bytes) << m.name;
        EXPECT_EQ(s.dense_param_count,
                  static_cast<double>(m.mlpParams())) << m.name;
        EXPECT_EQ(s.embedding_tables, m.numSparse()) << m.name;
    }
}

TEST(StepGraph, MixedDimsGetProjectionNodes)
{
    // Uniform tables all keep the full width; spread the popularity so
    // the mixed-dimension rule shrinks the tail.
    auto m = model::DlrmConfig::testSuite(64, 4, 1000, 64, 2, 8.0, 0);
    m.sparse[0].mean_length = 32.0;
    m.sparse[1].mean_length = 8.0;
    m.sparse[2].mean_length = 2.0;
    m.sparse[3].mean_length = 0.5;
    const auto without = graph::buildModelStepGraph(m);
    EXPECT_EQ(without.findComm(graph::CommOp::None), nullptr);

    const auto mixed = model::applyMixedDimensions(m, 0.5, 4);
    const auto g = graph::buildModelStepGraph(mixed);
    std::size_t projections = 0;
    for (const auto& node : g.nodes) {
        if (node.kind == NodeKind::Gemm &&
            node.role == graph::GemmRole::Projection) {
            ++projections;
            // A projection follows its (narrower) table.
            const auto* emb = g.find(
                "emb.t" + std::to_string(node.table));
            ASSERT_NE(emb, nullptr);
            EXPECT_EQ(emb->out_width, node.in_width);
            EXPECT_LT(node.in_width, mixed.emb_dim);
            EXPECT_EQ(node.out_width, mixed.emb_dim);
        }
    }
    EXPECT_GT(projections, 0u);
    // Summaries still match the config's own accounting.
    const auto fp = mixed.footprint();
    const auto s = graph::summarize(g);
    EXPECT_EQ(s.mlp_flops, fp.mlp_flops);
    EXPECT_EQ(s.embedding_bytes, fp.embedding_bytes);
}

TEST(StepGraph, BindAttachesCpuCommNodesWithShares)
{
    const auto m = model::DlrmConfig::testSuite(256, 8, 100000);
    const auto sys = cost::SystemConfig::cpuSetup(2, 3, 1, 200, 1);
    // IterationModel's construction is the canonical build+bind path.
    const cost::IterationModel im(m, sys);
    const auto& g = im.stepGraph();

    double total_share = 0.0;
    for (std::size_t s = 0; s < sys.num_sparse_ps; ++s) {
        const auto* req = g.findComm(graph::CommOp::PsRequest,
                                     static_cast<int>(s));
        ASSERT_NE(req, nullptr) << "shard " << s;
        EXPECT_GE(req->share, 0.0);
        total_share += req->share;
        EXPECT_NE(g.findComm(graph::CommOp::PsGather,
                             static_cast<int>(s)), nullptr);
        EXPECT_NE(g.findComm(graph::CommOp::GradPush,
                             static_cast<int>(s)), nullptr);
    }
    EXPECT_NEAR(total_share, 1.0, 1e-12);
    EXPECT_NE(g.findComm(graph::CommOp::DenseSync), nullptr);
    // No GPU-only collectives on the CPU system.
    EXPECT_EQ(g.findComm(graph::CommOp::AllReduce), nullptr);

    for (const auto& node : g.nodes) {
        if (node.kind == NodeKind::EmbeddingLookup) {
            EXPECT_EQ(node.device, graph::Device::SparsePs);
        }
        if (node.kind == NodeKind::Gemm) {
            EXPECT_EQ(node.device, graph::Device::TrainerCpu);
        }
    }
}

TEST(StepGraph, BindAssignsGpuDevices)
{
    const auto m = model::DlrmConfig::testSuite(256, 8, 100000);
    const auto sys = cost::SystemConfig::bigBasinSetup(
        placement::EmbeddingPlacement::GpuMemory, 1600);
    const cost::IterationModel im(m, sys);
    const auto& g = im.stepGraph();

    for (const auto& node : g.nodes) {
        if (node.kind == NodeKind::EmbeddingLookup ||
            node.kind == NodeKind::Gemm) {
            EXPECT_EQ(node.device, graph::Device::Gpu);
        }
    }
    EXPECT_NE(g.findComm(graph::CommOp::AllReduce), nullptr);
    EXPECT_NE(g.findComm(graph::CommOp::Input), nullptr);
    EXPECT_EQ(g.findComm(graph::CommOp::DenseSync), nullptr);
}

// ---------------------------------------------------------------------
// Dependency edges, topological order, validation, critical path
// ---------------------------------------------------------------------

/** Position of each node in @p order (inverse permutation). */
std::vector<std::size_t>
positionsOf(const graph::StepGraph& g,
            const std::vector<std::size_t>& order)
{
    std::vector<std::size_t> pos(g.numNodes(), graph::StepGraph::npos);
    for (std::size_t p = 0; p < order.size(); ++p)
        pos[order[p]] = p;
    return pos;
}

TEST(StepGraphDeps, TopoOrderIsAValidSchedule)
{
    // Model-built and placement-bound graphs alike: topoOrder() is a
    // permutation in which every dep precedes its consumer.
    std::vector<graph::StepGraph> graphs;
    graphs.push_back(graph::buildModelStepGraph(
        model::DlrmConfig::testSuite(128, 6, 50000)));
    const auto m = model::DlrmConfig::testSuite(256, 8, 100000);
    graphs.push_back(cost::IterationModel(
        m, cost::SystemConfig::cpuSetup(2, 3, 1, 200, 1)).stepGraph());
    graphs.push_back(cost::IterationModel(
        m, cost::SystemConfig::bigBasinSetup(
               placement::EmbeddingPlacement::RemotePs, 1600, 4))
        .stepGraph());

    for (const auto& g : graphs) {
        EXPECT_EQ(g.validate(), "");
        const auto order = g.topoOrder();
        ASSERT_EQ(order.size(), g.numNodes());
        const auto pos = positionsOf(g, order);
        for (std::size_t i = 0; i < g.numNodes(); ++i) {
            ASSERT_NE(pos[i], graph::StepGraph::npos);
            for (std::size_t d : g.nodes[i].deps) {
                EXPECT_LT(pos[d], pos[i])
                    << g.nodes[d].id << " !< " << g.nodes[i].id;
            }
        }
    }
}

TEST(StepGraphDeps, ModelGraphWiresTheDataflow)
{
    auto m = model::DlrmConfig::testSuite(64, 4, 1000, 64, 2, 8.0, 0);
    m.sparse[0].mean_length = 32.0;
    m.sparse[3].mean_length = 0.5;
    const auto mixed = model::applyMixedDimensions(m, 0.5, 4);
    const auto g = graph::buildModelStepGraph(mixed);

    // Bottom MLP chains layer by layer from the input.
    EXPECT_TRUE(g.find("bottom_mlp.l0")->deps.empty());
    ASSERT_EQ(g.find("bottom_mlp.l1")->deps.size(), 1u);
    EXPECT_EQ(g.find("bottom_mlp.l1")->deps[0],
              g.indexOf("bottom_mlp.l0"));

    // Tables are roots; a projection consumes exactly its table.
    std::size_t last_bottom = graph::StepGraph::npos;
    for (std::size_t i = 0; i < g.numNodes(); ++i) {
        const auto& node = g.nodes[i];
        if (node.kind == NodeKind::Gemm &&
            node.role == graph::GemmRole::BottomMlp)
            last_bottom = i;
        if (node.kind == NodeKind::EmbeddingLookup) {
            EXPECT_TRUE(node.deps.empty()) << node.id;
        }
        if (node.kind == NodeKind::Gemm &&
            node.role == graph::GemmRole::Projection) {
            ASSERT_EQ(node.deps.size(), 1u) << node.id;
            EXPECT_EQ(node.deps[0],
                      g.indexOf("emb.t" + std::to_string(node.table)));
        }
    }

    // Interaction joins the bottom output and one producer per table
    // (the table itself, or its projection when narrow).
    const auto& ix = g.nodes[g.indexOf("interaction")];
    ASSERT_EQ(ix.deps.size(), 1u + mixed.numSparse());
    EXPECT_EQ(ix.deps[0], last_bottom);
    for (std::size_t f = 0; f < mixed.numSparse(); ++f) {
        const std::size_t producer = ix.deps[1 + f];
        const auto& p = g.nodes[producer];
        EXPECT_EQ(p.table, static_cast<int>(f));
        if (p.kind == NodeKind::Gemm) {
            EXPECT_EQ(p.role, graph::GemmRole::Projection);
        }
    }

    // Top MLP -> loss -> optimizer is a chain.
    EXPECT_EQ(g.find("top_mlp.l0")->deps[0], g.indexOf("interaction"));
    ASSERT_EQ(g.find("loss")->deps.size(), 1u);
    ASSERT_EQ(g.find("optimizer")->deps.size(), 1u);
    EXPECT_EQ(g.find("optimizer")->deps[0], g.indexOf("loss"));
}

TEST(StepGraphDeps, DepsStableAcrossRebuilds)
{
    const auto m = model::DlrmConfig::testSuite(256, 8, 100000);
    const auto sys = cost::SystemConfig::cpuSetup(2, 3, 1, 200, 1);
    const auto a = cost::IterationModel(m, sys).stepGraph();
    const auto b = cost::IterationModel(m, sys).stepGraph();
    ASSERT_EQ(a.numNodes(), b.numNodes());
    for (std::size_t i = 0; i < a.numNodes(); ++i) {
        EXPECT_EQ(a.nodes[i].id, b.nodes[i].id);
        EXPECT_EQ(a.nodes[i].deps, b.nodes[i].deps) << a.nodes[i].id;
    }
    EXPECT_EQ(a.topoOrder(), b.topoOrder());
}

TEST(StepGraphDeps, ValidateRejectsMalformedEdges)
{
    const auto m = model::DlrmConfig::testSuite(128, 4, 10000);

    auto g = graph::buildModelStepGraph(m);
    EXPECT_EQ(g.validate(), "");

    auto bad = g;
    bad.nodes[1].deps.push_back(bad.numNodes() + 5);
    EXPECT_NE(bad.validate(), "");

    bad = g;
    bad.nodes[2].deps.push_back(2);
    EXPECT_NE(bad.validate(), "");

    bad = g;
    bad.nodes[1].deps.push_back(0);
    bad.nodes[1].deps.push_back(0);
    EXPECT_NE(bad.validate(), "");

    // A cycle: make node 0 depend on the optimizer (which transitively
    // depends on everything).
    bad = g;
    bad.nodes[0].deps.push_back(bad.indexOf("optimizer"));
    EXPECT_NE(bad.validate(), "");
}

TEST(StepGraphDeps, CpuBindChainsPsLegsAndJoinsInteraction)
{
    const auto m = model::DlrmConfig::testSuite(256, 8, 100000);
    const auto sys = cost::SystemConfig::cpuSetup(2, 3, 1, 200, 1);
    const auto g =
        cost::IterationModel(m, sys).stepGraph();

    const auto idx = [&g](const graph::Node* node) {
        return static_cast<std::size_t>(node - g.nodes.data());
    };
    const auto& ix = g.nodes[g.indexOf("interaction")];
    for (std::size_t s = 0; s < sys.num_sparse_ps; ++s) {
        const int shard = static_cast<int>(s);
        const auto* req = g.findComm(graph::CommOp::PsRequest, shard);
        const auto* gather = g.findComm(graph::CommOp::PsGather, shard);
        const auto* pool = g.findComm(graph::CommOp::PsPool, shard);
        const auto* resp = g.findComm(graph::CommOp::PsResponse, shard);
        ASSERT_NE(req, nullptr);
        ASSERT_NE(resp, nullptr);
        // request -> gather -> pool -> response, rooted at the start.
        EXPECT_TRUE(req->deps.empty());
        EXPECT_EQ(gather->deps, std::vector<std::size_t>{idx(req)});
        EXPECT_EQ(pool->deps, std::vector<std::size_t>{idx(gather)});
        EXPECT_EQ(resp->deps, std::vector<std::size_t>{idx(pool)});
        // The pooled vectors join the compute at the interaction.
        EXPECT_NE(std::find(ix.deps.begin(), ix.deps.end(), idx(resp)),
                  ix.deps.end());
        // Gradient push waits on the optimizer.
        const auto* push = g.findComm(graph::CommOp::GradPush, shard);
        ASSERT_NE(push, nullptr);
        EXPECT_EQ(push->deps, std::vector<std::size_t>{
                                  g.indexOf("optimizer")});
    }
    const auto* sync = g.findComm(graph::CommOp::DenseSync);
    ASSERT_NE(sync, nullptr);
    EXPECT_EQ(sync->deps,
              std::vector<std::size_t>{g.indexOf("optimizer")});
}

TEST(StepGraphDeps, GpuBindRootsComputeOnInputPipeline)
{
    const auto m = model::DlrmConfig::testSuite(256, 8, 100000);
    const auto g = cost::IterationModel(
        m, cost::SystemConfig::bigBasinSetup(
               placement::EmbeddingPlacement::GpuMemory, 1600))
        .stepGraph();

    const auto* input = g.findComm(graph::CommOp::Input);
    ASSERT_NE(input, nullptr);
    const std::size_t input_idx =
        static_cast<std::size_t>(input - g.nodes.data());
    EXPECT_TRUE(input->deps.empty());

    // First bottom layer and every table wait on the input pipeline.
    const auto& l0 = *g.find("bottom_mlp.l0");
    EXPECT_NE(std::find(l0.deps.begin(), l0.deps.end(), input_idx),
              l0.deps.end());
    for (const auto& node : g.nodes) {
        if (node.kind != NodeKind::EmbeddingLookup)
            continue;
        EXPECT_NE(
            std::find(node.deps.begin(), node.deps.end(), input_idx),
            node.deps.end())
            << node.id;
    }

    // The all-to-all consumes the GPU-resident tables and feeds the
    // interaction; the allreduce waits on the optimizer.
    const auto* a2a = g.findComm(graph::CommOp::AllToAll);
    ASSERT_NE(a2a, nullptr);
    EXPECT_FALSE(a2a->deps.empty());
    const std::size_t a2a_idx =
        static_cast<std::size_t>(a2a - g.nodes.data());
    const auto& ix = g.nodes[g.indexOf("interaction")];
    EXPECT_NE(std::find(ix.deps.begin(), ix.deps.end(), a2a_idx),
              ix.deps.end());
    const auto* ar = g.findComm(graph::CommOp::AllReduce);
    ASSERT_NE(ar, nullptr);
    EXPECT_EQ(ar->deps,
              std::vector<std::size_t>{g.indexOf("optimizer")});
}

TEST(StepGraphDeps, EveryNodeConnectsToTheOptimizer)
{
    // Reachability: each node either feeds the optimizer (transitively)
    // or consumes it (gradient traffic) — no disconnected islands.
    const auto m = model::DlrmConfig::testSuite(256, 8, 100000);
    for (const auto& g :
         {cost::IterationModel(
              m, cost::SystemConfig::cpuSetup(2, 3, 1, 200, 1))
              .stepGraph(),
          cost::IterationModel(
              m, cost::SystemConfig::bigBasinSetup(
                     placement::EmbeddingPlacement::RemotePs, 1600, 4))
              .stepGraph()}) {
        const std::size_t opt = g.indexOf("optimizer");
        std::vector<char> feeds_opt(g.numNodes(), 0);
        feeds_opt[opt] = 1;
        const auto order = g.topoOrder();
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            for (std::size_t d : g.nodes[*it].deps) {
                if (feeds_opt[*it])
                    feeds_opt[d] = 1;
            }
        }
        for (std::size_t i = 0; i < g.numNodes(); ++i) {
            if (feeds_opt[i])
                continue;
            const auto& deps = g.nodes[i].deps;
            EXPECT_NE(std::find(deps.begin(), deps.end(), opt),
                      deps.end())
                << g.nodes[i].id << " is disconnected";
        }
    }
}

TEST(StepGraphDeps, CriticalPathMatchesHandComputedChain)
{
    // Diamond: 0 -> {1, 2} -> 3 with costs 1, 10, 2, 5: the longest
    // path is 0 -> 1 -> 3 = 16.
    graph::StepGraph g;
    for (int i = 0; i < 4; ++i) {
        graph::Node node;
        node.id = "n" + std::to_string(i);
        g.nodes.push_back(node);
    }
    g.nodes[1].deps = {0};
    g.nodes[2].deps = {0};
    g.nodes[3].deps = {1, 2};
    const std::vector<double> costs = {1.0, 10.0, 2.0, 5.0};
    EXPECT_DOUBLE_EQ(g.criticalPath(costs), 16.0);
    // Uniform zero cost collapses the path to zero.
    EXPECT_DOUBLE_EQ(g.criticalPath(std::vector<double>(4, 0.0)), 0.0);
}

/** The longest-path fold in topoOrder(): the reference criticalPath()
 *  must reproduce bit for bit. */
double
criticalPathByTopoFold(const graph::StepGraph& g,
                       const std::vector<double>& cost)
{
    std::vector<double> finish(g.numNodes(), 0.0);
    double longest = 0.0;
    for (std::size_t i : g.topoOrder()) {
        double start = 0.0;
        for (std::size_t d : g.nodes[i].deps)
            start = std::max(start, finish[d]);
        finish[i] = start + cost[i];
        longest = std::max(longest, finish[i]);
    }
    return longest;
}

TEST(StepGraphDeps, CriticalPathMatchesTopoFoldOnModelZooGraphs)
{
    using placement::EmbeddingPlacement;
    const auto m1 = model::DlrmConfig::m1Prod();
    // M3's tables overflow GPU memory, so Hybrid splits GPU and host.
    const auto m3 = model::DlrmConfig::m3Prod();
    std::vector<std::pair<model::DlrmConfig, cost::SystemConfig>> setups =
        {{m1, cost::SystemConfig::cpuSetup(6, 8, 2, 200, 1)}};
    for (const auto p :
         {EmbeddingPlacement::GpuMemory, EmbeddingPlacement::HostMemory,
          EmbeddingPlacement::RemotePs, EmbeddingPlacement::Hybrid}) {
        const auto& m = p == EmbeddingPlacement::Hybrid ? m3 : m1;
        const std::size_t ps = p == EmbeddingPlacement::RemotePs ? 4 : 0;
        setups.push_back({m, cost::SystemConfig::bigBasinSetup(p, 1600, ps)});
        setups.push_back({m, cost::SystemConfig::zionSetup(p, 1600, ps)});
    }
    auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
    for (const auto& [m, sys] : setups) {
        for (const bool fused : {false, true}) {
            cost::CostParams params;
            params.fuse_step_graph = fused;
            const cost::IterationModel im(m, sys, params);
            const auto& g = im.stepGraph();
            const std::string where = sys.platform.name + " " +
                placement::toString(sys.placement) +
                (fused ? " fused" : " unfused");
            ASSERT_TRUE(im.plan().feasible) << where;
            std::vector<double> seconds;
            for (const auto& t : im.nodeBreakdown())
                seconds.push_back(t.seconds);
            ASSERT_EQ(seconds.size(), g.numNodes()) << where;
            const double walk = g.criticalPath(seconds);
            EXPECT_EQ(bits(walk), bits(criticalPathByTopoFold(g, seconds)))
                << where;
            EXPECT_EQ(bits(walk), bits(im.estimate().critical_path_seconds))
                << where;
            // Synthetic costs too: the walk must match the fold for
            // any costs, not only the breakdown's.
            std::vector<double> ranks(g.numNodes());
            for (std::size_t i = 0; i < ranks.size(); ++i)
                ranks[i] = 1.0 + 0.37 * static_cast<double>(i % 11);
            EXPECT_EQ(bits(g.criticalPath(ranks)),
                      bits(criticalPathByTopoFold(g, ranks)))
                << where;
        }
    }
}

TEST(StepGraphDepsDeath, CriticalPathPanicsOnACycle)
{
    graph::StepGraph g;
    for (int i = 0; i < 3; ++i) {
        graph::Node node;
        node.id = "n" + std::to_string(i);
        g.nodes.push_back(node);
    }
    g.nodes[1].deps = {0, 2};
    g.nodes[2].deps = {1};
    EXPECT_DEATH(g.criticalPath(std::vector<double>(3, 1.0)),
                 "dependency cycle");
}

TEST(StepGraphDepsDeath, CriticalPathPanicsOnAnOutOfRangeDep)
{
    graph::StepGraph g;
    for (int i = 0; i < 2; ++i) {
        graph::Node node;
        node.id = "n" + std::to_string(i);
        g.nodes.push_back(node);
    }
    g.nodes[1].deps = {0, 5};
    EXPECT_DEATH(g.criticalPath(std::vector<double>(2, 1.0)),
                 "out of range");
}

TEST(StepGraphDeps, LookupsFindEveryIdAndCommLeg)
{
    const auto m = model::DlrmConfig::testSuite(256, 8, 100000);
    auto g = cost::IterationModel(
        m, cost::SystemConfig::cpuSetup(2, 3, 1, 200, 1)).stepGraph();

    // Every id is found at its own index (ids are unique).
    for (std::size_t i = 0; i < g.numNodes(); ++i) {
        const auto& node = g.nodes[i];
        EXPECT_EQ(g.indexOf(node.id), i) << node.id;
        EXPECT_EQ(g.find(node.id), &node) << node.id;
    }
    EXPECT_EQ(g.indexOf("no_such_node"), graph::StepGraph::npos);
    EXPECT_EQ(g.find("no_such_node"), nullptr);

    // Every (op, shard) pair finds its comm node, and "any shard" finds
    // the first node with the op.
    for (std::size_t i = 0; i < g.numNodes(); ++i) {
        const auto& node = g.nodes[i];
        if (node.kind != NodeKind::Comm)
            continue;
        EXPECT_EQ(g.findComm(node.comm, node.shard), &node) << node.id;
        const graph::Node* first = g.findComm(node.comm);
        ASSERT_NE(first, nullptr) << node.id;
        EXPECT_LE(first, &node) << node.id;
        EXPECT_EQ(first->comm, node.comm) << node.id;
    }
    EXPECT_EQ(g.findComm(graph::CommOp::PsRequest, 3), nullptr);
    EXPECT_EQ(g.findComm(graph::CommOp::AllReduce), nullptr);

    // A node appended by hand is found with no further step.
    graph::Node extra;
    extra.id = "hand_added";
    extra.kind = NodeKind::Comm;
    extra.comm = graph::CommOp::DenseSync;
    extra.shard = 7;
    g.nodes.push_back(extra);
    EXPECT_EQ(g.indexOf("hand_added"), g.numNodes() - 1);
    EXPECT_EQ(g.findComm(graph::CommOp::DenseSync, 7),
              &g.nodes.back());
}

TEST(ForwardSubgraph, ModelGraphDropsOnlyTheTrainingSinks)
{
    // In the unbound model graph Loss and OptimizerUpdate are pure
    // sinks, so pruning must keep every other node with its dep list
    // verbatim (modulo index compaction, which is the identity here
    // because the sinks sit at the end of the vector).
    const auto m = model::DlrmConfig::testSuite(256, 8, 100000);
    const auto full = graph::buildModelStepGraph(m);
    const auto fwd = graph::forwardSubgraph(full);

    EXPECT_TRUE(fwd.validate().empty());
    ASSERT_EQ(fwd.numNodes(), full.numNodes() - 2);
    for (std::size_t i = 0; i < fwd.numNodes(); ++i) {
        EXPECT_EQ(fwd.nodes[i].id, full.nodes[i].id);
        EXPECT_EQ(fwd.nodes[i].deps, full.nodes[i].deps);
    }
    EXPECT_EQ(fwd.find("loss"), nullptr);
    EXPECT_EQ(fwd.find("optimizer"), nullptr);
}

TEST(ForwardSubgraph, BoundGraphRewiresThroughCommNodes)
{
    const auto m = model::DlrmConfig::testSuite(256, 8, 100000);
    const auto sys = cost::SystemConfig::cpuSetup(2, 3, 1, 200, 1);
    const auto bound = cost::IterationModel(m, sys).stepGraph();
    ASSERT_NE(bound.findComm(graph::CommOp::PsRequest), nullptr);
    const auto fwd = graph::forwardSubgraph(bound);
    EXPECT_TRUE(fwd.validate().empty());

    // Exactly the executable nodes survive, in vector order, with
    // their annotations (shard/device/size metadata) untouched.
    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < bound.numNodes(); ++i) {
        const auto kind = bound.nodes[i].kind;
        if (kind == NodeKind::Gemm ||
            kind == NodeKind::EmbeddingLookup ||
            kind == NodeKind::Interaction)
            kept.push_back(i);
    }
    ASSERT_EQ(fwd.numNodes(), kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
        const auto& orig = bound.nodes[kept[i]];
        const auto& node = fwd.nodes[i];
        EXPECT_EQ(node.id, orig.id);
        EXPECT_EQ(node.kind, orig.kind);
        EXPECT_EQ(node.shard, orig.shard);
        EXPECT_EQ(node.device, orig.device);
        EXPECT_EQ(node.in_width, orig.in_width);
        EXPECT_EQ(node.out_width, orig.out_width);
        EXPECT_DOUBLE_EQ(node.fwd_flops, orig.fwd_flops);
    }

    // Every rewired dep edge must correspond to a real path in the
    // bound graph whose interior nodes were all dropped: walk back
    // from the dependent through dropped nodes only and require the
    // dep to be reachable.
    for (std::size_t i = 0; i < fwd.numNodes(); ++i) {
        const std::size_t node_orig = kept[i];
        for (std::size_t d : fwd.nodes[i].deps) {
            ASSERT_LT(d, kept.size());
            const std::size_t dep_orig = kept[d];
            // BFS over original deps, passing through dropped nodes.
            std::vector<std::size_t> frontier = {node_orig};
            std::vector<char> seen(bound.numNodes(), 0);
            bool reachable = false;
            while (!frontier.empty() && !reachable) {
                const std::size_t cur = frontier.back();
                frontier.pop_back();
                for (std::size_t p : bound.nodes[cur].deps) {
                    if (p == dep_orig) {
                        reachable = true;
                        break;
                    }
                    const auto kind = bound.nodes[p].kind;
                    const bool dropped =
                        kind == NodeKind::Comm ||
                        kind == NodeKind::Loss ||
                        kind == NodeKind::OptimizerUpdate;
                    if (dropped && !seen[p]) {
                        seen[p] = 1;
                        frontier.push_back(p);
                    }
                }
            }
            EXPECT_TRUE(reachable)
                << fwd.nodes[i].id << " -> " << fwd.nodes[d].id
                << " has no dropped-node path in the bound graph";
        }
    }

    // Spot check: the interaction reached the PS legs only through
    // comm nodes; after pruning it must join the embedding lookups
    // (its kept ancestors through PsResponse) directly.
    const auto& ix = fwd.nodes[fwd.indexOf("interaction")];
    std::size_t emb_deps = 0;
    for (std::size_t d : ix.deps)
        if (fwd.nodes[d].kind == NodeKind::EmbeddingLookup)
            ++emb_deps;
    EXPECT_GT(emb_deps, 0u);
}

// ---- fusePass -------------------------------------------------------

/** Mixed-dim config: emb -> proj chains exercise the dep rewiring. */
model::DlrmConfig
fusionConfig()
{
    auto m = model::DlrmConfig::testSuite(64, 6, 1000, 64, 2, 8.0, 0);
    for (std::size_t f = 0; f < m.sparse.size(); ++f)
        m.sparse[f].mean_length = 0.5 + static_cast<double>(f);
    return model::applyMixedDimensions(m, 0.5, 4);
}

TEST(FusePass, MarksEveryGemmEpilogueFused)
{
    auto g = graph::buildModelStepGraph(fusionConfig());
    const auto before = graph::summarize(g);
    EXPECT_GT(before.epilogue_traffic_bytes, 0.0);

    graph::fusePass(g);
    for (const auto& node : g.nodes) {
        if (node.kind != NodeKind::Gemm)
            continue;
        EXPECT_TRUE(node.fused_epilogue) << node.id;
        EXPECT_EQ(node.epilogue_traffic_bytes, 0.0) << node.id;
    }
    EXPECT_EQ(graph::summarize(g).epilogue_traffic_bytes, 0.0);
}

TEST(FusePass, MarksBackwardFusionAndFlatten)
{
    auto g = graph::buildModelStepGraph(fusionConfig());
    const auto before = graph::summarize(g);
    EXPECT_GT(before.bwd_epilogue_traffic_bytes, 0.0);

    graph::fusePass(g);
    for (const auto& node : g.nodes) {
        if (node.kind == NodeKind::Gemm) {
            EXPECT_TRUE(node.fused_backward) << node.id;
            EXPECT_EQ(node.bwd_epilogue_traffic_bytes, 0.0) << node.id;
            // The flatten rewrite claims exactly the top-MLP entry
            // layer on the GEMM side.
            EXPECT_EQ(node.fused_flatten,
                      node.role == graph::GemmRole::TopMlp &&
                          node.layer == 0)
                << node.id;
        } else if (node.kind == NodeKind::Interaction) {
            EXPECT_TRUE(node.fused_flatten);
            EXPECT_EQ(node.bwd_epilogue_traffic_bytes, 0.0);
        } else {
            EXPECT_FALSE(node.fused_backward) << node.id;
            EXPECT_FALSE(node.fused_flatten) << node.id;
        }
    }
    EXPECT_EQ(graph::summarize(g).bwd_epilogue_traffic_bytes, 0.0);
}

TEST(FusePass, BuilderBwdEpilogueBytesFollowTheTrafficFormula)
{
    // Unfused backward: every GEMM pays the bias-grad sumRows re-read
    // of dy [B, out]; hidden layers (mask = previous activation) also
    // pay reluBackward's read+write of the input grad [B, in];
    // projections pay bias-grad only. The Interaction node carries the
    // flatten-buffer round trip the flatten rewrite removes.
    const auto cfg = fusionConfig();
    const auto g = graph::buildModelStepGraph(cfg);
    const auto dims = cfg.bottomDims();
    std::size_t in = cfg.num_dense;
    for (std::size_t l = 0; l < dims.size(); ++l) {
        const auto* node =
            g.find("bottom_mlp.l" + std::to_string(l));
        ASSERT_NE(node, nullptr);
        const double want = (static_cast<double>(dims[l]) +
                             (l > 0 ? 2.0 * static_cast<double>(in)
                                    : 0.0)) *
            sizeof(float);
        EXPECT_EQ(node->bwd_epilogue_traffic_bytes, want) << node->id;
        in = dims[l];
    }
    for (const auto& node : g.nodes) {
        if (node.kind == NodeKind::Gemm &&
            node.role == graph::GemmRole::Projection) {
            EXPECT_EQ(node.bwd_epilogue_traffic_bytes,
                      static_cast<double>(node.out_width) *
                          sizeof(float))
                << node.id;
        }
    }
    const auto* ix = g.find("interaction");
    ASSERT_NE(ix, nullptr);
    const double want_ix =
        (cfg.interaction == nn::InteractionKind::DotProduct
             ? 4.0 * static_cast<double>(cfg.emb_dim)
             : 2.0 * static_cast<double>(cfg.interactionWidth())) *
        sizeof(float);
    EXPECT_EQ(ix->bwd_epilogue_traffic_bytes, want_ix);
}

TEST(FusePass, BuilderEpilogueBytesFollowTheTrafficFormula)
{
    // Hidden MLP layers pay a bias pass plus a ReLU pass (4 bytes
    // moved per output element per pass direction); last layers and
    // projections pay bias only.
    const auto cfg = fusionConfig();
    const auto g = graph::buildModelStepGraph(cfg);
    const auto dims = cfg.bottomDims();
    for (std::size_t l = 0; l < dims.size(); ++l) {
        const auto* node =
            g.find("bottom_mlp.l" + std::to_string(l));
        ASSERT_NE(node, nullptr);
        const double passes = l + 1 < dims.size() ? 4.0 : 2.0;
        EXPECT_EQ(node->epilogue_traffic_bytes,
                  passes * static_cast<double>(dims[l]) *
                      sizeof(float))
            << node->id;
    }
    for (const auto& node : g.nodes) {
        if (node.kind == NodeKind::Gemm &&
            node.role == graph::GemmRole::Projection) {
            EXPECT_EQ(node.epilogue_traffic_bytes,
                      2.0 * static_cast<double>(node.out_width) *
                          sizeof(float))
                << node.id;
        }
    }
}

TEST(FusePass, GroupsLookupsWithExactAnnotationSums)
{
    const auto cfg = fusionConfig();
    const auto unfused = graph::buildModelStepGraph(cfg);
    auto g = graph::buildModelStepGraph(cfg);
    graph::fusePass(g);
    EXPECT_TRUE(g.validate().empty());

    // Unbound graph: every lookup shares one (unassigned) device, so
    // exactly one grouped node replaces them all.
    EXPECT_EQ(g.indicesOf(NodeKind::EmbeddingLookup).size(), 1u);
    const auto* grouped = g.find("emb.grouped.g0");
    ASSERT_NE(grouped, nullptr);

    // fused_tables lists the members in merge (= node) order, and each
    // annotation is the exact member-order sum.
    std::vector<int> want_tables;
    double lookups = 0.0, bytes = 0.0, pooled = 0.0, params = 0.0;
    for (const auto& node : unfused.nodes) {
        if (node.kind != NodeKind::EmbeddingLookup)
            continue;
        want_tables.push_back(node.table);
        lookups += node.lookups_per_example;
        bytes += node.bytes_per_example;
        pooled += node.pooled_bytes_per_example;
        params += node.param_bytes;
    }
    EXPECT_EQ(grouped->fused_tables, want_tables);
    EXPECT_EQ(grouped->lookups_per_example, lookups);
    EXPECT_EQ(grouped->bytes_per_example, bytes);
    EXPECT_EQ(grouped->pooled_bytes_per_example, pooled);
    EXPECT_EQ(grouped->param_bytes, params);

    // Work totals the cost model folds are preserved exactly; only the
    // node count collapses.
    const auto before = graph::summarize(unfused);
    const auto after = graph::summarize(g);
    EXPECT_EQ(after.embedding_lookups, before.embedding_lookups);
    EXPECT_EQ(after.embedding_bytes, before.embedding_bytes);
    EXPECT_EQ(after.pooled_bytes, before.pooled_bytes);
    EXPECT_EQ(after.mlp_flops, before.mlp_flops);
    EXPECT_EQ(after.embedding_tables, 1u);
}

TEST(FusePass, RewiresConsumersOntoTheGroupedNode)
{
    const auto cfg = fusionConfig();
    auto g = graph::buildModelStepGraph(cfg);
    graph::fusePass(g);
    ASSERT_TRUE(g.validate().empty());
    EXPECT_FALSE(g.topoOrder().empty());

    const std::size_t gi = g.indexOf("emb.grouped.g0");
    ASSERT_NE(gi, graph::StepGraph::npos);

    // Every pre-fusion consumer of a per-table lookup (projections and
    // the interaction) must now depend on the grouped node instead,
    // with the edge deduplicated.
    bool found_proj = false;
    for (const auto& node : g.nodes) {
        if (node.kind == NodeKind::Gemm &&
            node.role == graph::GemmRole::Projection) {
            found_proj = true;
            EXPECT_EQ(std::count(node.deps.begin(), node.deps.end(),
                                 gi),
                      1)
                << node.id;
        }
    }
    ASSERT_TRUE(found_proj);
    const auto& ix = g.nodes[g.indexOf("interaction")];
    EXPECT_EQ(std::count(ix.deps.begin(), ix.deps.end(), gi), 1);
    // No dangling references to the merged per-table ids.
    EXPECT_EQ(g.find("emb.t0"), nullptr);
}

TEST(FusePass, Idempotent)
{
    auto g = graph::buildModelStepGraph(fusionConfig());
    graph::fusePass(g);
    const auto once = g;
    graph::fusePass(g);
    ASSERT_EQ(g.nodes.size(), once.nodes.size());
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
        EXPECT_EQ(g.nodes[i].id, once.nodes[i].id);
        EXPECT_EQ(g.nodes[i].deps, once.nodes[i].deps);
        EXPECT_EQ(g.nodes[i].lookups_per_example,
                  once.nodes[i].lookups_per_example);
        EXPECT_EQ(g.nodes[i].fused_tables, once.nodes[i].fused_tables);
    }
}

TEST(FusePass, BoundGraphGroupsPerDeviceWithStableIds)
{
    // A CPU PS system spreads the tables over shards of one device
    // (SparsePs). Grouping is per device — never per shard — so the
    // bound graph produces the same grouped id the unbound graph does,
    // keeping the three validation columns keyed alike.
    const auto m = model::DlrmConfig::testSuite(256, 8, 100000);
    const auto sys = cost::SystemConfig::cpuSetup(2, 3, 1, 200, 1);
    cost::CostParams params;
    params.fuse_step_graph = true;
    const cost::IterationModel im(m, sys, params);
    const auto& g = im.stepGraph();
    ASSERT_TRUE(g.validate().empty());

    EXPECT_EQ(g.indicesOf(NodeKind::EmbeddingLookup).size(), 1u);
    const auto* grouped = g.find("emb.grouped.g0");
    ASSERT_NE(grouped, nullptr);
    EXPECT_EQ(grouped->device, graph::Device::SparsePs);
    EXPECT_EQ(grouped->fused_tables.size(), m.numSparse());
    // Members span PS shards, so the grouped node claims none.
    EXPECT_EQ(grouped->shard, -1);
    // Comm legs survive untouched, one chain per shard.
    for (std::size_t s = 0; s < sys.num_sparse_ps; ++s) {
        EXPECT_NE(g.findComm(graph::CommOp::PsGather,
                             static_cast<int>(s)), nullptr);
    }
}

} // namespace
} // namespace recsim
