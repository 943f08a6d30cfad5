#include "nn/optimizer.h"

#include "nn/linear.h"
#include "nn/mlp.h"
#include "tensor/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace recsim {
namespace nn {

namespace {

/**
 * Elements per dense-update chunk: tens of microseconds of
 * memory-bound work, so dispatch stays negligible. The updates are
 * elementwise, so the chunking changes no bits.
 */
constexpr std::size_t kDenseGrain = std::size_t(1) << 16;

} // namespace

Sgd::Sgd(float lr)
    : lr_(lr)
{
    RECSIM_ASSERT(lr > 0.0f, "learning rate must be positive");
}

void
Sgd::step(tensor::Tensor& param, const tensor::Tensor& grad) const
{
    RECSIM_ASSERT(param.size() == grad.size(), "SGD shape mismatch");
    float* p = param.data();
    const float* g = grad.data();
    const float lr = lr_;
    util::globalThreadPool().parallelFor(
        0, param.size(), kDenseGrain,
        [=](std::size_t i0, std::size_t i1) {
            tensor::simd::sgdSpan(p + i0, g + i0, i1 - i0, lr);
        });
}

void
Sgd::step(Linear& layer) const
{
    step(layer.weight, layer.gradWeight);
    step(layer.bias, layer.gradBias);
}

void
Sgd::step(Mlp& mlp) const
{
    for (auto& layer : mlp.layers())
        step(layer);
}

void
Sgd::stepSparse(EmbeddingBag& bag, const SparseGrad& grad) const
{
    // The row arithmetic lives behind the bag's storage backend so
    // tiered backends can charge write-through bytes per tier.
    bag.applySgd(grad, lr_);
}

Adagrad::Adagrad(float lr, float eps)
    : lr_(lr), eps_(eps)
{
    RECSIM_ASSERT(lr > 0.0f, "learning rate must be positive");
}

void
Adagrad::step(tensor::Tensor& param, const tensor::Tensor& grad)
{
    RECSIM_ASSERT(param.size() == grad.size(), "Adagrad shape mismatch");
    auto& acc = dense_state_[param.data()];
    if (acc.size() != param.size())
        acc.assign(param.size(), 0.0f);
    float* p = param.data();
    float* a = acc.data();
    const float* g = grad.data();
    const float lr = lr_, eps = eps_;
    util::globalThreadPool().parallelFor(
        0, param.size(), kDenseGrain,
        [=](std::size_t i0, std::size_t i1) {
            tensor::simd::adagradSpan(p + i0, a + i0, g + i0, i1 - i0,
                                      lr, eps);
        });
}

void
Adagrad::step(Linear& layer)
{
    step(layer.weight, layer.gradWeight);
    step(layer.bias, layer.gradBias);
}

void
Adagrad::step(Mlp& mlp)
{
    for (auto& layer : mlp.layers())
        step(layer);
}

void
Adagrad::reserveRowState(const EmbeddingBag& bag)
{
    auto& acc = row_state_[bag.table.data()];
    if (acc.size() != bag.hashSize())
        acc.assign(bag.hashSize(), 0.0f);
}

void
Adagrad::stepSparse(EmbeddingBag& bag, const SparseGrad& grad)
{
    auto it = row_state_.find(bag.table.data());
    if (it == row_state_.end() || it->second.size() != bag.hashSize()) {
        reserveRowState(bag);
        it = row_state_.find(bag.table.data());
    }
    // The optimizer owns the accumulator (checkpointable via
    // rowState); the bag's storage backend owns the row arithmetic
    // and the per-tier write accounting.
    bag.applyAdagrad(grad, it->second, lr_, eps_);
}

std::vector<float>
Adagrad::denseState(const tensor::Tensor& param) const
{
    const auto it = dense_state_.find(param.data());
    return it == dense_state_.end() ? std::vector<float>{}
                                    : it->second;
}

void
Adagrad::setDenseState(const tensor::Tensor& param,
                       std::vector<float> acc)
{
    RECSIM_ASSERT(acc.empty() || acc.size() == param.size(),
                  "Adagrad dense state size {} vs param size {}",
                  acc.size(), param.size());
    if (acc.empty())
        dense_state_.erase(param.data());
    else
        dense_state_[param.data()] = std::move(acc);
}

std::vector<float>
Adagrad::rowState(const EmbeddingBag& bag) const
{
    const auto it = row_state_.find(bag.table.data());
    return it == row_state_.end() ? std::vector<float>{} : it->second;
}

void
Adagrad::setRowState(const EmbeddingBag& bag, std::vector<float> acc)
{
    RECSIM_ASSERT(acc.empty() || acc.size() == bag.hashSize(),
                  "Adagrad row state size {} vs hash size {}",
                  acc.size(), bag.hashSize());
    if (acc.empty())
        row_state_.erase(bag.table.data());
    else
        row_state_[bag.table.data()] = std::move(acc);
}

void
Adagrad::resetState()
{
    dense_state_.clear();
    row_state_.clear();
}

} // namespace nn
} // namespace recsim
