#include "model/dlrm.h"

#include <algorithm>

#include "nn/embedding_backend.h"
#include "nn/loss.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace recsim {
namespace model {

Dlrm::Dlrm(const DlrmConfig& config, uint64_t seed, double max_bytes)
    : config_(config)
{
    const double emb_bytes = config_.embeddingBytes();
    if (emb_bytes > max_bytes) {
        util::fatal("config '{}' needs {} of embeddings (> {} limit); "
                    "use the analytical cost models for shapes this "
                    "large", config_.name,
                    util::bytesToString(emb_bytes),
                    util::bytesToString(max_bytes));
    }
    util::Rng rng(seed);
    bottom_ = std::make_unique<nn::Mlp>(config_.num_dense,
                                        config_.bottomDims(), rng);
    top_ = std::make_unique<nn::Mlp>(config_.interactionWidth(),
                                     config_.topDims(), rng);
    tables_.reserve(config_.numSparse());
    projections_.reserve(config_.numSparse());
    for (const auto& spec : config_.sparse) {
        util::Rng table_rng = rng.fork(spec.hash_size);
        const std::size_t dim = spec.effectiveDim(config_.emb_dim);
        tables_.emplace_back(spec.hash_size, dim, table_rng,
                             nn::Pooling::Sum);
        // Narrow tables project up to the shared width (mixed dims).
        projections_.push_back(
            dim == config_.emb_dim
                ? nullptr
                : std::make_unique<nn::Linear>(dim, config_.emb_dim,
                                               rng));
    }
    for (auto* mlp : {bottom_.get(), top_.get()}) {
        for (auto& layer : mlp->layers())
            dense_layers_.push_back(&layer);
    }
    for (auto& proj : projections_) {
        if (proj)
            dense_layers_.push_back(proj.get());
    }
    pooled_raw_.resize(config_.numSparse());
    pooled_.resize(config_.numSparse());
    d_pooled_raw_.resize(config_.numSparse());
    sparse_grads_.resize(config_.numSparse());
}

void
Dlrm::forwardBottomLayer(std::size_t i, const data::MiniBatch& batch,
                         bool fused)
{
    bottom_->forwardLayer(i, batch.dense, fused);
    if (i + 1 == bottom_->numLayers())
        bottom_out_ = bottom_->output();
}

void
Dlrm::forwardEmbedding(std::size_t f, const data::MiniBatch& batch)
{
    // Narrow tables pool into the raw buffer their projection reads.
    if (projections_[f])
        tables_[f].forward(batch.sparse[f], pooled_raw_[f]);
    else
        tables_[f].forward(batch.sparse[f], pooled_[f]);
}

void
Dlrm::forwardEmbeddingGroup(const std::vector<int>& group,
                            const data::MiniBatch& batch)
{
    struct Unit
    {
        std::size_t f, e0, e1;
    };
    std::vector<Unit> units;
    for (int fi : group) {
        const auto f = static_cast<std::size_t>(fi);
        const nn::SparseBatch& sb = batch.sparse[f];
        tensor::Tensor& out =
            projections_[f] ? pooled_raw_[f] : pooled_[f];
        const std::size_t b = sb.batchSize();
        const std::size_t dim = tables_[f].dim();
        if (out.rank() != 2 || out.rows() != b || out.cols() != dim)
            out.resize(b, dim);
        else
            out.zero();
        RECSIM_ASSERT(sb.offsets.empty() ||
                          (sb.offsets.front() == 0 &&
                           sb.offsets.back() <= sb.indices.size()),
                      "corrupt SparseBatch offsets");
        // Chunks at multiples of the per-table grain from 0 — the same
        // geometry EmbeddingBag::forward's parallelFor produces.
        const std::size_t g =
            nn::EmbeddingBag::forwardChunkGrain(sb, dim);
        for (std::size_t e0 = 0; e0 < b; e0 += g)
            units.push_back({f, e0, std::min(e0 + g, b)});
    }
    util::globalThreadPool().parallelFor(
        0, units.size(), 1,
        [this, &units, &batch](std::size_t u0, std::size_t u1) {
            for (std::size_t u = u0; u < u1; ++u) {
                const Unit& unit = units[u];
                tensor::Tensor& out = projections_[unit.f]
                    ? pooled_raw_[unit.f]
                    : pooled_[unit.f];
                tables_[unit.f].forwardRange(batch.sparse[unit.f], out,
                                             unit.e0, unit.e1);
            }
        });
    // Close the batch on every member table's backend, serially —
    // exactly what each table's own forward() would have done.
    for (int fi : group) {
        const auto f = static_cast<std::size_t>(fi);
        tables_[f].endForwardBatch(batch.sparse[f]);
    }
}

void
Dlrm::setEmbeddingBackend(std::size_t f,
                          std::shared_ptr<nn::EmbeddingBackend> backend)
{
    RECSIM_ASSERT(f < tables_.size(), "no embedding table {}", f);
    tables_[f].setBackend(std::move(backend));
}

void
Dlrm::installCachedEmbeddingBackends(double hot_tier_bytes,
                                     std::size_t refresh_every)
{
    RECSIM_ASSERT(hot_tier_bytes >= 0.0, "negative hot-tier budget");
    const std::size_t n = tables_.size();
    // Mirror placement's hot-tier allocator (allocateHotTier in
    // placement.cc) byte for byte so the rows installed here are the
    // rows the analytic hit fraction
    // (cost::IterationModel::hotTierHitFraction) was computed for:
    // same overhead-inflated table bytes, same densest-first
    // whole-table packing, same traffic-share split of the leftover.
    constexpr double kOverhead = 1.25;  // PlacementOptions default.
    std::vector<double> bytes(n), access(n);
    for (std::size_t f = 0; f < n; ++f) {
        const auto& spec = config_.sparse[f];
        const double dim = static_cast<double>(tables_[f].dim());
        bytes[f] = static_cast<double>(spec.hash_size) * dim *
            sizeof(float) * kOverhead;
        access[f] = spec.effectiveMeanLength() * dim * sizeof(float);
    }
    std::vector<std::size_t> order(n);
    for (std::size_t f = 0; f < n; ++f)
        order[f] = f;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return access[a] / bytes[a] >
                             access[b] / bytes[b];
                     });

    std::vector<std::size_t> hot_rows(n, 0);
    double remaining = hot_tier_bytes;
    std::vector<std::size_t> partial;
    double partial_access = 0.0;
    for (std::size_t f : order) {
        if (bytes[f] <= remaining) {
            hot_rows[f] = config_.sparse[f].hash_size;
            remaining -= bytes[f];
        } else {
            partial.push_back(f);
            partial_access += access[f];
        }
    }
    if (remaining > 0.0 && partial_access > 0.0) {
        for (std::size_t f : partial) {
            const double share = access[f] / partial_access;
            const double hot = std::min(remaining * share, bytes[f]);
            hot_rows[f] = static_cast<std::size_t>(
                static_cast<double>(config_.sparse[f].hash_size) *
                hot / bytes[f]);
        }
    }

    for (std::size_t f = 0; f < n; ++f) {
        nn::CachedBackendConfig cfg;
        cfg.hot_rows = hot_rows[f];
        cfg.refresh_every = refresh_every;
        cfg.label = "emb.t" + std::to_string(f);
        tables_[f].setBackend(nn::makeCachedBackend(std::move(cfg)));
    }
}

void
Dlrm::installDramEmbeddingBackends()
{
    for (auto& table : tables_)
        table.setBackend(nn::makeDramBackend());
}

void
Dlrm::forwardProjection(std::size_t f, bool fused)
{
    if (fused)
        projections_[f]->forwardFused(pooled_raw_[f], pooled_[f], false);
    else
        projections_[f]->forward(pooled_raw_[f], pooled_[f]);
}

void
Dlrm::forwardInteraction()
{
    if (config_.interaction == nn::InteractionKind::DotProduct)
        dot_.forward(bottom_out_, pooled_, interact_out_);
    else
        cat_.forward(bottom_out_, pooled_, interact_out_);
}

void
Dlrm::forwardTopLayer(std::size_t i, bool fused)
{
    top_->forwardLayer(i, interact_out_, fused);
    if (i + 1 == top_->numLayers())
        logits_ = top_->output();
}

double
Dlrm::lossBackward(const data::MiniBatch& batch)
{
    return nn::bceWithLogits(logits_, batch.labels, d_logits_);
}

void
Dlrm::backwardTopLayer(std::size_t i, bool fused, bool flatten)
{
    if (flatten && i == 0) {
        // Interaction-flatten fusion: run layer 0's backward by hand —
        // parameter grads as usual, but the input-grad GEMM writes the
        // interaction backward's destinations directly (segmented over
        // the product's columns) instead of the d_interact_ flatten
        // buffer. Each segment element carries the exact fma chain of
        // the unsegmented GEMM, and the dot pass-through's zero-bias
        // segment reproduces its zero + += bits, so the fused walk
        // stays bitwise equal (d_interact_ is simply never written).
        const tensor::Tensor& grad = top_->gradInto(0, d_logits_);
        nn::Linear& l0 = top_->layers()[0];
        if (fused)
            l0.backwardNoInputGradFused(interact_out_, grad);
        else
            l0.backwardNoInputGrad(interact_out_, grad);
        std::vector<tensor::GemmOutSegment> segs;
        if (config_.interaction == nn::InteractionKind::DotProduct) {
            const std::size_t f = pooled_.size() + 1;
            const std::size_t pairs = f * (f - 1) / 2;
            segs.push_back({&d_bottom_out_, bottom_out_.cols(),
                            /*zero_bias=*/true});
            if (pairs > 0)
                segs.push_back({&d_interact_pairs_, pairs, false});
        } else {
            // Ordinarily CatInteraction::backward sizes this vector.
            d_pooled_.resize(pooled_.size());
            segs.push_back({&d_bottom_out_, bottom_out_.cols(), false});
            for (std::size_t s = 0; s < pooled_.size(); ++s)
                segs.push_back({&d_pooled_[s], pooled_[s].cols(),
                                false});
        }
        tensor::matmulTransBSegmented(grad, l0.weight, segs);
        return;
    }
    if (fused)
        top_->backwardLayerFused(i, interact_out_, d_logits_,
                                 d_interact_);
    else
        top_->backwardLayer(i, interact_out_, d_logits_, d_interact_);
}

void
Dlrm::backwardInteraction(bool flatten)
{
    if (flatten) {
        // The flatten-fused top-MLP layer 0 already wrote d_bottom_out_
        // (and, for concat, every d_pooled_) — only the dot pairwise
        // scatter remains.
        if (config_.interaction == nn::InteractionKind::DotProduct)
            dot_.backwardFused(bottom_out_, pooled_, d_interact_pairs_,
                               d_bottom_out_, d_pooled_);
        return;
    }
    if (config_.interaction == nn::InteractionKind::DotProduct)
        dot_.backward(bottom_out_, pooled_, d_interact_, d_bottom_out_,
                      d_pooled_);
    else
        cat_.backward(bottom_out_, pooled_, d_interact_, d_bottom_out_,
                      d_pooled_);
}

void
Dlrm::backwardBottomLayer(std::size_t i, const data::MiniBatch& batch,
                          bool fused)
{
    if (fused)
        bottom_->backwardLayerFused(i, batch.dense, d_bottom_out_,
                                    d_dense_in_);
    else
        bottom_->backwardLayer(i, batch.dense, d_bottom_out_,
                               d_dense_in_);
}

void
Dlrm::backwardProjection(std::size_t f, bool fused)
{
    if (fused)
        projections_[f]->backwardFused(pooled_raw_[f], d_pooled_[f],
                                       d_pooled_raw_[f], nullptr);
    else
        projections_[f]->backward(pooled_raw_[f], d_pooled_[f],
                                  d_pooled_raw_[f]);
}

void
Dlrm::backwardEmbedding(std::size_t f, const data::MiniBatch& batch)
{
    const tensor::Tensor& grad =
        projections_[f] ? d_pooled_raw_[f] : d_pooled_[f];
    tables_[f].backward(batch.sparse[f], grad, sparse_grads_[f]);
}

void
Dlrm::forward(const data::MiniBatch& batch, tensor::Tensor& logits)
{
    RECSIM_ASSERT(batch.sparse.size() == tables_.size(),
                  "batch has {} sparse features, model expects {}",
                  batch.sparse.size(), tables_.size());
    RECSIM_TRACE_SPAN("model.fwd");
    for (std::size_t i = 0; i < bottom_->numLayers(); ++i)
        forwardBottomLayer(i, batch);
    for (std::size_t f = 0; f < tables_.size(); ++f) {
        forwardEmbedding(f, batch);
        if (projections_[f])
            forwardProjection(f);
    }
    forwardInteraction();
    for (std::size_t i = 0; i < top_->numLayers(); ++i)
        forwardTopLayer(i);
    logits = logits_;
}

void
Dlrm::zeroGrad()
{
    for (nn::Linear* layer : dense_layers_)
        layer->zeroGrad();
    // Clearing rows (the size the optimizers iterate) is enough;
    // keeping the values buffer lets the next backward reuse it.
    for (auto& g : sparse_grads_)
        g.rows.clear();
}

template <typename Opt>
void
Dlrm::stepDenseWith(Opt& opt)
{
    for (nn::Linear* layer : dense_layers_)
        opt.step(*layer);
}

template <typename Opt>
void
Dlrm::stepWith(Opt& opt)
{
    stepDense(opt);
    for (std::size_t f = 0; f < tables_.size(); ++f)
        stepTable(f, opt);
    zeroGrad();
}

void
Dlrm::step(const nn::Sgd& opt)
{
    stepWith(opt);
}

void
Dlrm::step(nn::Adagrad& opt)
{
    stepWith(opt);
}

void
Dlrm::stepTable(std::size_t f, const nn::Sgd& opt)
{
    opt.stepSparse(tables_[f], sparse_grads_[f]);
}

void
Dlrm::stepTable(std::size_t f, nn::Adagrad& opt)
{
    opt.stepSparse(tables_[f], sparse_grads_[f]);
}

void
Dlrm::stepDense(const nn::Sgd& opt)
{
    stepDenseWith(opt);
}

void
Dlrm::stepDense(nn::Adagrad& opt)
{
    stepDenseWith(opt);
}

std::vector<tensor::Tensor*>
Dlrm::denseParams()
{
    std::vector<tensor::Tensor*> params;
    for (nn::Linear* layer : dense_layers_) {
        params.push_back(&layer->weight);
        params.push_back(&layer->bias);
    }
    return params;
}

std::size_t
Dlrm::numDenseParams() const
{
    std::size_t total = 0;
    for (const nn::Linear* layer : dense_layers_)
        total += layer->numParams();
    return total;
}

} // namespace model
} // namespace recsim
