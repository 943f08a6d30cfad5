#include "train/step_runner.h"

#include <algorithm>
#include <atomic>

#include "obs/trace.h"
#include "util/logging.h"

namespace recsim {
namespace train {

namespace {

/** Nodes the trainer dispatches to a model primitive. */
bool
executableNode(const graph::Node& node)
{
    return node.kind == graph::NodeKind::Gemm ||
        node.kind == graph::NodeKind::EmbeddingLookup ||
        node.kind == graph::NodeKind::Interaction;
}

} // namespace

/** The optimizer trainStep() applies: exactly one of the two is set. */
struct GraphExecutor::Optimizer
{
    const nn::Sgd* sgd = nullptr;
    nn::Adagrad* adagrad = nullptr;

    void stepTable(model::Dlrm& model, std::size_t f) const
    {
        if (sgd != nullptr)
            model.stepTable(f, *sgd);
        else
            model.stepTable(f, *adagrad);
    }

    void stepDense(model::Dlrm& model) const
    {
        if (sgd != nullptr)
            model.stepDense(*sgd);
        else
            model.stepDense(*adagrad);
    }
};

GraphExecutor::GraphExecutor(const graph::StepGraph& graph,
                             util::ThreadPool& pool)
    : GraphExecutor(graph, pool, /*serial=*/false)
{
}

GraphExecutor
GraphExecutor::serial(const graph::StepGraph& graph)
{
    return GraphExecutor(graph, util::globalThreadPool(), /*serial=*/true);
}

GraphExecutor::GraphExecutor(const graph::StepGraph& graph,
                             util::ThreadPool& pool, bool serial)
    : graph_(&graph), pool_(&pool)
{
    const std::string problem = graph.validate();
    RECSIM_ASSERT(problem.empty(), "invalid StepGraph: {}", problem);

    const std::size_t n = graph.nodes.size();
    std::vector<char> exec(n, 0);
    for (std::size_t i = 0; i < n; ++i)
        exec[i] = executableNode(graph.nodes[i]) ? 1 : 0;

    // Effective deps: each node's executable predecessors, looking
    // through non-executable nodes (comm legs, loss, optimizer) so a
    // bound graph schedules exactly like its compute skeleton.
    const auto order = graph.topoOrder();
    std::vector<std::vector<std::size_t>> eff(n);
    for (std::size_t i : order) {
        std::vector<std::size_t> e;
        for (std::size_t d : graph.nodes[i].deps) {
            if (exec[d])
                e.push_back(d);
            else
                e.insert(e.end(), eff[d].begin(), eff[d].end());
        }
        std::sort(e.begin(), e.end());
        e.erase(std::unique(e.begin(), e.end()), e.end());
        eff[i] = std::move(e);
    }

    if (serial) {
        // One node per wave in node order, reversed for the backward
        // half: sound only when node order respects every effective
        // dep.
        for (std::size_t i = 0; i < n; ++i) {
            if (!exec[i])
                continue;
            for (std::size_t d : eff[i])
                RECSIM_ASSERT(d < i, "serial schedule: node {} comes "
                              "before its dependency {}",
                              graph.nodes[i].id, graph.nodes[d].id);
            fwd_waves_.push_back({i});
        }
        bwd_waves_.assign(fwd_waves_.rbegin(), fwd_waves_.rend());
    } else {
        // Forward wave of a node = longest executable-dep chain below it.
        std::vector<std::size_t> level(n, 0);
        std::size_t deepest = 0;
        for (std::size_t i : order) {
            if (!exec[i])
                continue;
            for (std::size_t d : eff[i])
                level[i] = std::max(level[i], level[d] + 1);
            deepest = std::max(deepest, level[i]);
        }
        fwd_waves_.assign(deepest + 1, {});
        for (std::size_t i = 0; i < n; ++i) {
            if (exec[i])
                fwd_waves_[level[i]].push_back(i);
        }

        // Backward waves: levels of the reversed DAG. Visiting the topo
        // order backwards, every successor of i has already pushed its
        // level into blevel[i], so blevel[i] is final when visited.
        std::vector<std::size_t> blevel(n, 0);
        deepest = 0;
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const std::size_t i = *it;
            if (!exec[i])
                continue;
            deepest = std::max(deepest, blevel[i]);
            for (std::size_t d : eff[i])
                blevel[d] = std::max(blevel[d], blevel[i] + 1);
        }
        bwd_waves_.assign(deepest + 1, {});
        for (std::size_t i = 0; i < n; ++i) {
            if (exec[i])
                bwd_waves_[blevel[i]].push_back(i);
        }
    }

    // Intern one recorder channel per node up front: the record path
    // then never touches the intern mutex, only the per-thread stripe.
    node_channels_.reserve(n);
    auto& recorder = obs::FlightRecorder::global();
    for (const auto& node : graph.nodes)
        node_channels_.push_back(recorder.internChannel(node.id));
}

void
GraphExecutor::dispatch(std::size_t node_index, model::Dlrm& model,
                        const data::MiniBatch& batch, bool forward,
                        uint64_t step, const Optimizer* opt) const
{
    const graph::Node& node = graph_->nodes[node_index];
    // The span opens on the executing thread, so concurrent nodes land
    // on their worker's track under the same node-id channels the cost
    // model and the DES report.
    obs::TraceSpan span(node_channels_[node_index], step,
                        static_cast<uint32_t>(batch.batchSize()));
    switch (node.kind) {
      case graph::NodeKind::Gemm:
        if (node.role == graph::GemmRole::Projection) {
            if (forward)
                model.forwardProjection(
                    static_cast<std::size_t>(node.table),
                    node.fused_epilogue);
            else
                model.backwardProjection(
                    static_cast<std::size_t>(node.table),
                    node.fused_backward);
        } else if (node.role == graph::GemmRole::BottomMlp) {
            if (forward)
                model.forwardBottomLayer(
                    static_cast<std::size_t>(node.layer), batch,
                    node.fused_epilogue);
            else
                model.backwardBottomLayer(
                    static_cast<std::size_t>(node.layer), batch,
                    node.fused_backward);
        } else {
            if (forward)
                model.forwardTopLayer(
                    static_cast<std::size_t>(node.layer),
                    node.fused_epilogue);
            else
                model.backwardTopLayer(
                    static_cast<std::size_t>(node.layer),
                    node.fused_backward, node.fused_flatten);
        }
        break;
      case graph::NodeKind::EmbeddingLookup:
        if (forward) {
            if (!node.fused_tables.empty())
                model.forwardEmbeddingGroup(node.fused_tables, batch);
            else
                model.forwardEmbedding(
                    static_cast<std::size_t>(node.table), batch);
        } else {
            // In a training step each table's sparse update follows
            // its own backward, while the table's gradient block is
            // still in cache.
            const auto backward = [&](int table) {
                const auto f = static_cast<std::size_t>(table);
                model.backwardEmbedding(f, batch);
                if (opt != nullptr)
                    opt->stepTable(model, f);
            };
            if (!node.fused_tables.empty()) {
                for (int table : node.fused_tables)
                    backward(table);
            } else {
                backward(node.table);
            }
        }
        break;
      case graph::NodeKind::Interaction:
        if (forward)
            model.forwardInteraction();
        else
            model.backwardInteraction(node.fused_flatten);
        break;
      default:
        util::panic("GraphExecutor dispatched a non-executable node");
    }
}

void
GraphExecutor::runWave(const std::vector<std::size_t>& wave,
                       model::Dlrm& model, const data::MiniBatch& batch,
                       bool forward, uint64_t step,
                       const Optimizer* opt) const
{
    if (wave.empty())
        return;
    if (wave.size() == 1) {
        dispatch(wave[0], model, batch, forward, step, opt);
        return;
    }
    // Grain 1: one node per pool task. Each node writes only its own
    // layer/table buffers, and its inner kernel parallelFor runs
    // inline on the worker (nested-submit rule) with the same chunk
    // geometry as a singleton wave — hence bit-identical results.
    pool_->parallelFor(
        0, wave.size(), 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t k = lo; k < hi; ++k)
                dispatch(wave[k], model, batch, forward, step, opt);
        });
}

void
GraphExecutor::runForward(model::Dlrm& model,
                          const data::MiniBatch& batch) const
{
    RECSIM_ASSERT(graph_->emb_dim == model.config().emb_dim &&
                  graph_->num_dense == model.config().num_dense,
                  "StepGraph was built for a different model config");
    const uint64_t step = nextStep();
    RECSIM_TRACE_SPAN("model.fwd");
    for (const auto& wave : fwd_waves_)
        runWave(wave, model, batch, /*forward=*/true, step, nullptr);
}

uint64_t
GraphExecutor::nextStep() const
{
    return obs::recorderEnabled()
        ? steps_issued_.fetch_add(1, std::memory_order_relaxed)
        : 0;
}

double
GraphExecutor::runWaves(model::Dlrm& model, const data::MiniBatch& batch,
                        uint64_t step, const Optimizer* opt) const
{
    RECSIM_ASSERT(graph_->emb_dim == model.config().emb_dim &&
                  graph_->num_dense == model.config().num_dense,
                  "StepGraph was built for a different model config");

    double loss = 0.0;
    {
        RECSIM_TRACE_SPAN("model.fwd");
        for (const auto& wave : fwd_waves_)
            runWave(wave, model, batch, /*forward=*/true, step, nullptr);
    }
    {
        // The graph's Loss node, so its span carries the step like
        // the dispatched nodes' spans do.
        static constinit obs::SpanSite loss_site("loss");
        obs::TraceSpan span(loss_site, step,
                            static_cast<uint32_t>(batch.batchSize()));
        loss = model.lossBackward(batch);
    }
    // The loss is known here, before any table changes.
    {
        RECSIM_TRACE_SPAN("model.bwd");
        for (const auto& wave : bwd_waves_)
            runWave(wave, model, batch, /*forward=*/false, step, opt);
    }
    return loss;
}

double
GraphExecutor::runStep(model::Dlrm& model,
                       const data::MiniBatch& batch) const
{
    return runWaves(model, batch, nextStep(), nullptr);
}

double
GraphExecutor::runTrainStep(model::Dlrm& model,
                            const data::MiniBatch& batch,
                            const Optimizer& opt) const
{
    const uint64_t step = nextStep();
    double loss = 0.0;
    {
        RECSIM_TRACE_SPAN("train.fwd_bwd");
        loss = runWaves(model, batch, step, &opt);
    }
    RECSIM_TRACE_SPAN("train.optimizer");
    // The graph's OptimizerUpdate node, dense half only: the backward
    // wave already updated every table.
    static constinit obs::SpanSite optimizer_site("optimizer");
    obs::TraceSpan span(optimizer_site, step,
                        static_cast<uint32_t>(batch.batchSize()));
    opt.stepDense(model);
    model.zeroGrad();
    return loss;
}

double
GraphExecutor::trainStep(model::Dlrm& model, const data::MiniBatch& batch,
                         const nn::Sgd& opt) const
{
    return runTrainStep(model, batch, Optimizer{&opt, nullptr});
}

double
GraphExecutor::trainStep(model::Dlrm& model, const data::MiniBatch& batch,
                         nn::Adagrad& opt) const
{
    // Inserting an accumulator inside the wave would race on the
    // optimizer's map, so every table gets its accumulator first.
    for (const nn::EmbeddingBag& table : model.tables())
        opt.reserveRowState(table);
    return runTrainStep(model, batch, Optimizer{nullptr, &opt});
}

} // namespace train
} // namespace recsim
