/**
 * @file
 * Tests for train::GraphExecutor, the dependency-aware step executor:
 * its wave and serial schedules must each cover every executable node
 * exactly once, and a training run through the waves must stay
 * bitwise-identical to the serial schedule — and both to the
 * graph-free reference walk (reference_walk.h) — at every thread-pool
 * size: losses per step and final dense parameters alike, and for
 * trainStep(), which updates each table inside the backward wave,
 * every table and accumulator. The equivalence is the whole contract:
 * inter-op parallelism is only admissible because it cannot change a
 * single bit of the result.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "cost/iteration_model.h"
#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/dlrm.h"
#include "nn/embedding_backend.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "train/step_runner.h"
#include "util/thread_pool.h"

#include "reference_walk.h"

namespace recsim::train {
namespace {

/** Model zoo exercising uniform tables, mixed dims, and tiny shapes. */
std::vector<model::DlrmConfig>
modelZoo()
{
    std::vector<model::DlrmConfig> zoo;
    zoo.push_back(model::DlrmConfig::tinyReplica(8, 13, 2000, 16));
    zoo.push_back(model::DlrmConfig::tinyReplica(4, 8, 500, 8));
    // Mixed dimensions add proj.t* nodes (emb -> proj chains).
    auto m = model::DlrmConfig::tinyReplica(8, 13, 2000, 16);
    for (std::size_t f = 0; f < m.sparse.size(); ++f)
        m.sparse[f].mean_length = 0.5 + static_cast<double>(f);
    zoo.push_back(model::applyMixedDimensions(m, 0.5, 4));
    return zoo;
}

data::DatasetConfig
datasetFor(const model::DlrmConfig& m)
{
    data::DatasetConfig cfg;
    cfg.num_dense = m.num_dense;
    cfg.sparse = m.sparse;
    cfg.seed = 7;
    return cfg;
}

bool
bitwiseEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Bitwise comparison of every dense parameter tensor. */
void
expectParamsBitwiseEqual(model::Dlrm& a, model::Dlrm& b,
                         const std::string& context)
{
    auto pa = a.denseParams();
    auto pb = b.denseParams();
    ASSERT_EQ(pa.size(), pb.size()) << context;
    for (std::size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i]->size(), pb[i]->size()) << context;
        EXPECT_EQ(std::memcmp(pa[i]->data(), pb[i]->data(),
                              pa[i]->size() * sizeof(float)),
                  0)
            << context << " tensor " << i;
    }
}

/**
 * Train 5 steps through the serial schedule, through the wave
 * executor and through the graph-free reference walk on same-seed
 * models with identical batches, applying SGD each step, and
 * require bitwise-equal losses and final parameters. The graph-free
 * leg checks that dispatch sends each node kind to the right
 * primitive, which the two schedules, sharing it, cannot.
 */
void
checkSerialEquivalence(const model::DlrmConfig& cfg,
                       const GraphExecutor& serial,
                       const GraphExecutor& executor,
                       std::size_t threads)
{
    auto& pool = util::globalThreadPool();
    pool.resize(threads);
    const std::string context =
        cfg.name + " @" + std::to_string(threads) + "t";

    model::Dlrm ref_model(cfg, 3);
    model::Dlrm serial_model(cfg, 3);
    model::Dlrm exec_model(cfg, 3);
    data::SyntheticCtrDataset ds(datasetFor(cfg));
    const nn::Sgd sgd(0.05f);
    for (std::size_t step = 0; step < 5; ++step) {
        const auto batch = ds.nextBatch(32);
        const double r = test::referenceForwardBackward(ref_model, batch);
        const double a = serial.runStep(serial_model, batch);
        const double b = executor.runStep(exec_model, batch);
        EXPECT_TRUE(bitwiseEqual(r, a))
            << context << " step " << step << ": " << r << " vs " << a;
        EXPECT_TRUE(bitwiseEqual(a, b))
            << context << " step " << step << ": " << a << " vs " << b;
        ref_model.step(sgd);
        serial_model.step(sgd);
        exec_model.step(sgd);
    }
    expectParamsBitwiseEqual(ref_model, serial_model,
                             context + " graph-free vs serial");
    expectParamsBitwiseEqual(serial_model, exec_model, context);
    pool.resize(1);
}

TEST(GraphExecutor, BitwiseEqualToSerialWalkAcrossThreadCounts)
{
    for (const auto& cfg : modelZoo()) {
        const auto graph = graph::buildModelStepGraph(cfg);
        const GraphExecutor serial = GraphExecutor::serial(graph);
        const GraphExecutor executor(graph);
        for (const std::size_t threads : {1u, 2u, 8u})
            checkSerialEquivalence(cfg, serial, executor, threads);
    }
}

/**
 * Bitwise comparison of accumulated gradients: every MLP layer's
 * dW/db plus the per-table sparse grads (rows and values).
 */
void
expectGradsBitwiseEqual(model::Dlrm& a, model::Dlrm& b,
                        const std::string& context)
{
    auto cmp_mlp = [&](nn::Mlp& ma, nn::Mlp& mb, const char* which) {
        ASSERT_EQ(ma.layers().size(), mb.layers().size()) << context;
        for (std::size_t l = 0; l < ma.layers().size(); ++l) {
            nn::Linear& x = ma.layers()[l];
            nn::Linear& y = mb.layers()[l];
            ASSERT_EQ(x.gradWeight.size(), y.gradWeight.size());
            EXPECT_EQ(std::memcmp(x.gradWeight.data(),
                                  y.gradWeight.data(),
                                  x.gradWeight.size() * sizeof(float)),
                      0)
                << context << " " << which << " l" << l << " dW";
            EXPECT_EQ(std::memcmp(x.gradBias.data(), y.gradBias.data(),
                                  x.gradBias.size() * sizeof(float)),
                      0)
                << context << " " << which << " l" << l << " db";
        }
    };
    cmp_mlp(a.bottomMlp(), b.bottomMlp(), "bottom");
    cmp_mlp(a.topMlp(), b.topMlp(), "top");

    const auto& sa = a.sparseGrads();
    const auto& sb = b.sparseGrads();
    ASSERT_EQ(sa.size(), sb.size()) << context;
    for (std::size_t t = 0; t < sa.size(); ++t) {
        ASSERT_EQ(sa[t].rows, sb[t].rows) << context << " table " << t;
        ASSERT_EQ(sa[t].values.size(), sb[t].values.size());
        EXPECT_EQ(std::memcmp(sa[t].values.data(), sb[t].values.data(),
                              sa[t].values.size() * sizeof(float)),
                  0)
            << context << " table " << t << " values";
    }
}

TEST(GraphExecutor, FusedBackwardGradsBitwiseEqualToUnfused)
{
    // Pre-optimizer gradient state after one fused step — dense dW/db
    // and sparse grads alike — must carry the exact bits of the
    // unfused serial schedule at every thread count. Stricter than the
    // post-SGD parameter check: nothing can hide in the update.
    auto& pool = util::globalThreadPool();
    for (const auto& cfg : modelZoo()) {
        const auto unfused = graph::buildModelStepGraph(cfg);
        auto fused_graph = graph::buildModelStepGraph(cfg);
        graph::fusePass(fused_graph);
        const GraphExecutor unfused_serial = GraphExecutor::serial(unfused);
        const GraphExecutor fused_walk = GraphExecutor::serial(fused_graph);
        const GraphExecutor executor(fused_graph);

        for (const std::size_t threads : {1u, 2u, 8u}) {
            pool.resize(threads);
            const std::string context = cfg.name + " grads @" +
                std::to_string(threads) + "t";
            model::Dlrm unfused_model(cfg, 3);
            model::Dlrm fused_serial(cfg, 3);
            model::Dlrm fused_exec(cfg, 3);
            data::SyntheticCtrDataset ds(datasetFor(cfg));
            const auto batch = ds.nextBatch(32);
            const double a = unfused_serial.runStep(unfused_model, batch);
            const double b = fused_walk.runStep(fused_serial, batch);
            const double c = executor.runStep(fused_exec, batch);
            EXPECT_TRUE(bitwiseEqual(a, b)) << context << " serial";
            EXPECT_TRUE(bitwiseEqual(a, c)) << context << " executor";
            expectGradsBitwiseEqual(unfused_model, fused_serial,
                                    context + " serial");
            expectGradsBitwiseEqual(unfused_model, fused_exec,
                                    context + " executor");
            pool.resize(1);
        }
    }
}

TEST(GraphExecutor, FusedGraphBitwiseEqualToUnfusedSerialWalk)
{
    // fusePass rewrites the IR (epilogue-fused GEMMs, grouped
    // lookups); execution through the fused graph — serial schedule
    // and wavefront executor alike — must stay bit-identical to the
    // unfused serial schedule at every thread count. This is the whole
    // license for the fusion pass.
    auto& pool = util::globalThreadPool();
    for (const auto& cfg : modelZoo()) {
        const auto unfused = graph::buildModelStepGraph(cfg);
        auto fused_graph = graph::buildModelStepGraph(cfg);
        graph::fusePass(fused_graph);
        ASSERT_NE(fused_graph.find("emb.grouped.g0"), nullptr);
        const GraphExecutor unfused_serial = GraphExecutor::serial(unfused);
        const GraphExecutor fused_walk = GraphExecutor::serial(fused_graph);
        const GraphExecutor executor(fused_graph);

        for (const std::size_t threads : {1u, 2u, 8u}) {
            pool.resize(threads);
            const std::string context = cfg.name + " fused @" +
                std::to_string(threads) + "t";
            model::Dlrm unfused_model(cfg, 3);
            model::Dlrm fused_serial(cfg, 3);
            model::Dlrm fused_exec(cfg, 3);
            data::SyntheticCtrDataset ds(datasetFor(cfg));
            const nn::Sgd sgd(0.05f);
            for (std::size_t step = 0; step < 5; ++step) {
                const auto batch = ds.nextBatch(32);
                const double a =
                    unfused_serial.runStep(unfused_model, batch);
                const double b = fused_walk.runStep(fused_serial, batch);
                const double c = executor.runStep(fused_exec, batch);
                EXPECT_TRUE(bitwiseEqual(a, b))
                    << context << " serial step " << step;
                EXPECT_TRUE(bitwiseEqual(a, c))
                    << context << " executor step " << step;
                unfused_model.step(sgd);
                fused_serial.step(sgd);
                fused_exec.step(sgd);
            }
            expectParamsBitwiseEqual(unfused_model, fused_serial,
                                     context + " serial");
            expectParamsBitwiseEqual(unfused_model, fused_exec,
                                     context + " executor");
            pool.resize(1);
        }
    }
}

/** memcmp of two float arrays of equal length. */
bool
bitwiseEqual(const float* a, const float* b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/**
 * Every piece of state a training step writes must match: losses,
 * dense parameters, embedding tables, Adagrad's dense and row
 * accumulators, and each table backend's tier accounting.
 */
void
expectTrainedStateBitwiseEqual(model::Dlrm& a, model::Dlrm& b,
                               const nn::Adagrad* ada_a,
                               const nn::Adagrad* ada_b,
                               const std::string& context)
{
    expectParamsBitwiseEqual(a, b, context);
    ASSERT_EQ(a.tables().size(), b.tables().size()) << context;
    for (std::size_t f = 0; f < a.tables().size(); ++f) {
        const nn::EmbeddingBag& ta = a.tables()[f];
        const nn::EmbeddingBag& tb = b.tables()[f];
        ASSERT_EQ(ta.table.size(), tb.table.size()) << context;
        EXPECT_TRUE(bitwiseEqual(ta.table.data(), tb.table.data(),
                                 ta.table.size()))
            << context << " table " << f;
        const nn::EmbeddingTierStats sa = ta.backend().stats();
        const nn::EmbeddingTierStats sb = tb.backend().stats();
        EXPECT_EQ(sa.hot_lookups, sb.hot_lookups) << context << " " << f;
        EXPECT_EQ(sa.cold_lookups, sb.cold_lookups) << context;
        EXPECT_EQ(sa.hot_read_bytes, sb.hot_read_bytes) << context;
        EXPECT_EQ(sa.cold_read_bytes, sb.cold_read_bytes) << context;
        EXPECT_EQ(sa.hot_write_bytes, sb.hot_write_bytes)
            << context << " table " << f;
        EXPECT_EQ(sa.cold_write_bytes, sb.cold_write_bytes)
            << context << " table " << f;
        EXPECT_EQ(sa.batches, sb.batches) << context;
        if (ada_a != nullptr) {
            const auto ra = ada_a->rowState(ta);
            const auto rb = ada_b->rowState(tb);
            ASSERT_EQ(ra.size(), ta.hashSize()) << context;
            ASSERT_EQ(ra.size(), rb.size()) << context;
            EXPECT_TRUE(bitwiseEqual(ra.data(), rb.data(), ra.size()))
                << context << " row accumulator " << f;
        }
    }
    if (ada_a != nullptr) {
        const auto pa = a.denseParams();
        const auto pb = b.denseParams();
        for (std::size_t i = 0; i < pa.size(); ++i) {
            const auto da = ada_a->denseState(*pa[i]);
            const auto db = ada_b->denseState(*pb[i]);
            ASSERT_EQ(da.size(), pa[i]->size()) << context;
            ASSERT_EQ(da.size(), db.size()) << context;
            EXPECT_TRUE(bitwiseEqual(da.data(), db.data(), da.size()))
                << context << " dense accumulator " << i;
        }
    }
}

TEST(GraphExecutor, TrainStepBitwiseEqualToSerialWalkPlusStep)
{
    // trainStep() applies each table's sparse update inside that
    // table's backward node, concurrently across tables, and the dense
    // update after the waves. The oracle is the unfused serial schedule
    // followed by Dlrm::step(): every table, accumulator, dense
    // parameter and tier counter must carry its exact bits, for both
    // optimizers, fused and unfused graphs, both backends, at every
    // pool size.
    auto& pool = util::globalThreadPool();
    constexpr std::size_t kSteps = 4;
    for (const auto& cfg : modelZoo()) {
        const auto unfused = graph::buildModelStepGraph(cfg);
        auto fused = graph::buildModelStepGraph(cfg);
        graph::fusePass(fused);
        const GraphExecutor unfused_serial = GraphExecutor::serial(unfused);
        for (const bool fuse : {false, true}) {
            const GraphExecutor executor(fuse ? fused : unfused);
            for (const bool adagrad : {false, true}) {
                for (const bool cached : {false, true}) {
                    for (const std::size_t threads : {1u, 2u, 8u}) {
                        pool.resize(threads);
                        const std::string context = cfg.name +
                            (fuse ? " fused" : " unfused") +
                            (adagrad ? " adagrad" : " sgd") +
                            (cached ? " cached" : " dram") + " @" +
                            std::to_string(threads) + "t";
                        model::Dlrm oracle(cfg, 3);
                        model::Dlrm trained(cfg, 3);
                        if (cached) {
                            // A mixed hot/cold split with mid-run
                            // refreshes, as in the backend suite.
                            const double budget =
                                0.3 * 1.25 * cfg.embeddingBytes();
                            oracle.installCachedEmbeddingBackends(
                                budget, 2);
                            trained.installCachedEmbeddingBackends(
                                budget, 2);
                        }
                        const nn::Sgd sgd(0.05f);
                        nn::Adagrad ada_oracle(0.05f);
                        nn::Adagrad ada_trained(0.05f);
                        data::SyntheticCtrDataset ds(datasetFor(cfg));
                        for (std::size_t step = 0; step < kSteps;
                             ++step) {
                            const auto batch = ds.nextBatch(32);
                            const double a =
                                unfused_serial.runStep(oracle, batch);
                            double b = 0.0;
                            if (adagrad) {
                                oracle.step(ada_oracle);
                                b = executor.trainStep(trained, batch,
                                                       ada_trained);
                            } else {
                                oracle.step(sgd);
                                b = executor.trainStep(trained, batch,
                                                       sgd);
                            }
                            EXPECT_TRUE(bitwiseEqual(a, b))
                                << context << " step " << step;
                        }
                        expectTrainedStateBitwiseEqual(
                            oracle, trained,
                            adagrad ? &ada_oracle : nullptr,
                            adagrad ? &ada_trained : nullptr, context);
                    }
                }
            }
        }
    }
    pool.resize(1);
}

TEST(GraphExecutor, BoundGraphSchedulesLikeComputeSkeleton)
{
    // A placement-bound graph carries Comm/Loss/Optimizer nodes the
    // executor must look through; the result must still match the
    // serial schedule over the same bound graph.
    const auto cfg = model::DlrmConfig::tinyReplica(8, 13, 2000, 16);
    const auto sys = cost::SystemConfig::cpuSetup(2, 3, 1, 200, 1);
    const cost::IterationModel im(cfg, sys);
    const auto& bound = im.stepGraph();
    ASSERT_NE(bound.findComm(graph::CommOp::PsRequest), nullptr);

    const GraphExecutor serial = GraphExecutor::serial(bound);
    const GraphExecutor executor(bound);
    for (const std::size_t threads : {1u, 8u})
        checkSerialEquivalence(cfg, serial, executor, threads);
}

TEST(GraphExecutor, ForwardSubgraphMatchesTrainingForwardBitwise)
{
    // The serving contract: the pruned forward StepGraph, run through
    // runForward on the executor, must produce logits memcmp-equal to
    // the graph-free training forward — on plain and mixed-dim
    // models, at 1/2/8 threads.
    auto& pool = util::globalThreadPool();
    for (const auto& cfg : modelZoo()) {
        const auto training = graph::buildModelStepGraph(cfg);
        const auto serving = graph::forwardSubgraph(training);
        const GraphExecutor executor(serving);
        data::SyntheticCtrDataset ds(datasetFor(cfg));
        for (std::size_t step = 0; step < 3; ++step) {
            const auto batch = ds.nextBatch(32);

            // Reference: the graph-free Dlrm::forward.
            model::Dlrm ref_model(cfg, 3);
            tensor::Tensor ref_logits;
            ref_model.forward(batch, ref_logits);

            for (const std::size_t threads : {1u, 2u, 8u}) {
                pool.resize(threads);
                model::Dlrm serve_model(cfg, 3);
                executor.runForward(serve_model, batch);
                const auto& logits = serve_model.logits();
                ASSERT_EQ(logits.size(), ref_logits.size());
                EXPECT_EQ(std::memcmp(logits.data(), ref_logits.data(),
                                      logits.size() * sizeof(float)),
                          0)
                    << cfg.name << " step " << step << " @" << threads
                    << "t: serving forward diverged from training "
                       "forward";
            }
        }
    }
    pool.resize(1);
}

TEST(GraphExecutor, RunForwardOnFullGraphMatchesPrunedGraph)
{
    // Pruning only drops nodes the schedule looks through, so the
    // full training graph and its forward subgraph must yield the
    // same forward waves — and the same bits.
    const auto cfg = model::DlrmConfig::tinyReplica(8, 13, 2000, 16);
    const auto training = graph::buildModelStepGraph(cfg);
    const auto serving = graph::forwardSubgraph(training);
    const GraphExecutor full(training);
    const GraphExecutor pruned(serving);
    ASSERT_EQ(full.forwardWaves().size(), pruned.forwardWaves().size());
    for (std::size_t w = 0; w < full.forwardWaves().size(); ++w)
        EXPECT_EQ(full.forwardWaves()[w].size(),
                  pruned.forwardWaves()[w].size());

    data::SyntheticCtrDataset ds(datasetFor(cfg));
    const auto batch = ds.nextBatch(16);
    model::Dlrm a(cfg, 3), b(cfg, 3);
    full.runForward(a, batch);
    pruned.runForward(b, batch);
    ASSERT_EQ(a.logits().size(), b.logits().size());
    EXPECT_EQ(std::memcmp(a.logits().data(), b.logits().data(),
                          a.logits().size() * sizeof(float)),
              0);
}

TEST(GraphExecutor, WavesCoverEachExecutableNodeExactlyOnce)
{
    const auto cfg = model::DlrmConfig::tinyReplica(8, 13, 2000, 16);
    const auto sys = cost::SystemConfig::cpuSetup(2, 3, 1, 200, 1);
    const cost::IterationModel im(cfg, sys);
    const auto& g = im.stepGraph();
    const GraphExecutor executor(g);
    const GraphExecutor serial = GraphExecutor::serial(g);

    std::set<std::size_t> executable;
    for (std::size_t i = 0; i < g.numNodes(); ++i) {
        const auto& node = g.nodes[i];
        if (node.kind == graph::NodeKind::Gemm ||
            node.kind == graph::NodeKind::EmbeddingLookup ||
            node.kind == graph::NodeKind::Interaction)
            executable.insert(i);
    }
    ASSERT_FALSE(executable.empty());

    for (const auto* waves :
         {&executor.forwardWaves(), &executor.backwardWaves(),
          &serial.forwardWaves(), &serial.backwardWaves()}) {
        std::set<std::size_t> seen;
        for (const auto& wave : *waves) {
            EXPECT_FALSE(wave.empty());
            for (std::size_t i : wave) {
                EXPECT_TRUE(seen.insert(i).second)
                    << "node " << g.nodes[i].id << " scheduled twice";
            }
        }
        EXPECT_EQ(seen, executable);
    }

    // The serial schedule: singleton waves, forward in increasing node
    // order, backward its reverse.
    const std::vector<std::size_t> in_order(executable.begin(),
                                            executable.end());
    const auto& fwd = serial.forwardWaves();
    const auto& bwd = serial.backwardWaves();
    ASSERT_EQ(fwd.size(), in_order.size());
    ASSERT_EQ(bwd.size(), in_order.size());
    for (std::size_t w = 0; w < in_order.size(); ++w) {
        EXPECT_EQ(fwd[w], std::vector<std::size_t>{in_order[w]});
        EXPECT_EQ(bwd[w], std::vector<std::size_t>{
                              in_order[in_order.size() - 1 - w]});
    }
}

TEST(GraphExecutorDeath, SerialScheduleRejectsANodeBeforeItsDependency)
{
    // top_mlp.l0 depends on the interaction through a comm node, but
    // comes first in node order. The wave schedule orders it by its
    // deps; the serial schedule would run it first, so it must refuse.
    graph::StepGraph g;
    graph::Node top;
    top.id = "top_mlp.l0";
    top.kind = graph::NodeKind::Gemm;
    top.role = graph::GemmRole::TopMlp;
    top.layer = 0;
    top.deps = {2};
    graph::Node interaction;
    interaction.id = "interaction";
    interaction.kind = graph::NodeKind::Interaction;
    graph::Node comm;
    comm.id = "comm.input";
    comm.kind = graph::NodeKind::Comm;
    comm.deps = {1};
    g.nodes = {top, interaction, comm};

    const GraphExecutor waves(g);
    EXPECT_EQ(waves.forwardWaves().size(), 2u);
    EXPECT_DEATH(GraphExecutor::serial(g),
                 "node top_mlp.l0 comes before its dependency "
                 "interaction");
}

TEST(GraphExecutor, ForwardWavesRespectDependencies)
{
    // Every effective predecessor of a node must sit in an earlier
    // wave: within the model graph the deps are all executable, so the
    // raw edges already must be honored.
    const auto cfg = model::DlrmConfig::tinyReplica(8, 13, 2000, 16);
    const auto g = graph::buildModelStepGraph(cfg);
    const GraphExecutor executor(g);

    std::vector<std::size_t> wave_of(g.numNodes(), 0);
    for (std::size_t w = 0; w < executor.forwardWaves().size(); ++w) {
        for (std::size_t i : executor.forwardWaves()[w])
            wave_of[i] = w;
    }
    for (const auto& wave : executor.forwardWaves()) {
        for (std::size_t i : wave) {
            for (std::size_t d : g.nodes[i].deps) {
                if (g.nodes[d].kind == graph::NodeKind::Gemm ||
                    g.nodes[d].kind ==
                        graph::NodeKind::EmbeddingLookup ||
                    g.nodes[d].kind == graph::NodeKind::Interaction) {
                    EXPECT_LT(wave_of[d], wave_of[i])
                        << g.nodes[d].id << " !< " << g.nodes[i].id;
                }
            }
        }
    }
}

} // namespace
} // namespace recsim::train
