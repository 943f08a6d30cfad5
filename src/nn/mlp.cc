#include "nn/mlp.h"

#include "tensor/ops.h"
#include "util/logging.h"
#include "util/random.h"

namespace recsim {
namespace nn {

Mlp::Mlp(std::size_t in, const std::vector<std::size_t>& dims,
         util::Rng& rng)
    : in_(in)
{
    RECSIM_ASSERT(!dims.empty(), "MLP needs at least one layer");
    std::size_t width = in;
    layers_.reserve(dims.size());
    for (std::size_t d : dims) {
        layers_.emplace_back(width, d, rng);
        width = d;
    }
    acts_.resize(layers_.size());
    grad_scratch_.resize(layers_.size());
}

std::size_t
Mlp::outFeatures() const
{
    return layers_.back().outFeatures();
}

std::size_t
Mlp::numParams() const
{
    std::size_t total = 0;
    for (const auto& l : layers_)
        total += l.numParams();
    return total;
}

void
Mlp::forwardLayer(std::size_t i, const tensor::Tensor& x, bool fused)
{
    const tensor::Tensor& input = i == 0 ? x : acts_[i - 1];
    const bool relu = i + 1 < layers_.size();
    if (fused) {
        layers_[i].forwardFused(input, acts_[i], relu);
        return;
    }
    layers_[i].forward(input, acts_[i]);
    if (relu)
        tensor::reluInPlace(acts_[i]);
}

void
Mlp::backwardLayer(std::size_t i, const tensor::Tensor& x,
                   const tensor::Tensor& dy, tensor::Tensor& dx)
{
    // The gradient flowing into layer i: dy for the last layer, else
    // the scratch the (i+1)-th backwardLayer call just filled.
    const tensor::Tensor& grad =
        i + 1 == layers_.size() ? dy : grad_scratch_[i];
    const tensor::Tensor& input = i == 0 ? x : acts_[i - 1];
    tensor::Tensor& dxi = i == 0 ? dx : grad_scratch_[i - 1];
    layers_[i].backward(input, grad, dxi);
    if (i > 0) {
        // Undo the ReLU applied after layer i-1 in forward().
        tensor::reluBackward(acts_[i - 1], dxi, dxi);
    }
}

void
Mlp::backwardLayerFused(std::size_t i, const tensor::Tensor& x,
                        const tensor::Tensor& dy, tensor::Tensor& dx)
{
    const tensor::Tensor& grad = gradInto(i, dy);
    const tensor::Tensor& input = i == 0 ? x : acts_[i - 1];
    tensor::Tensor& dxi = i == 0 ? dx : grad_scratch_[i - 1];
    layers_[i].backwardFused(input, grad, dxi,
                             i > 0 ? &acts_[i - 1] : nullptr);
}

void
Mlp::forward(const tensor::Tensor& x, tensor::Tensor& y)
{
    for (std::size_t i = 0; i < layers_.size(); ++i)
        forwardLayer(i, x);
    y = acts_.back();
}

void
Mlp::backward(const tensor::Tensor& x, const tensor::Tensor& dy,
              tensor::Tensor& dx)
{
    RECSIM_ASSERT(acts_.back().rows() == dy.rows(),
                  "MLP backward without matching forward");
    for (std::size_t i = layers_.size(); i-- > 0;)
        backwardLayer(i, x, dy, dx);
}

void
Mlp::zeroGrad()
{
    for (auto& l : layers_)
        l.zeroGrad();
}

} // namespace nn
} // namespace recsim
