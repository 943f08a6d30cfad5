#include "nn/linear.h"

#include <cmath>

#include "tensor/ops.h"
#include "util/logging.h"
#include "util/random.h"

namespace recsim {
namespace nn {

Linear::Linear(std::size_t in, std::size_t out, util::Rng& rng)
    : weight(in, out), bias(out), gradWeight(in, out), gradBias(out),
      in_(in), out_(out)
{
    RECSIM_ASSERT(in > 0 && out > 0, "degenerate Linear [{} -> {}]", in,
                  out);
    weight.fillNormal(rng, std::sqrt(2.0f / static_cast<float>(in)));
}

void
Linear::forward(const tensor::Tensor& x, tensor::Tensor& y) const
{
    RECSIM_ASSERT(x.cols() == in_, "Linear forward {} into [{} -> {}]",
                  x.shapeString(), in_, out_);
    tensor::matmul(x, weight, y);
    tensor::addBiasRows(y, bias);
}

void
Linear::forwardFused(const tensor::Tensor& x, tensor::Tensor& y,
                     bool relu) const
{
    RECSIM_ASSERT(x.cols() == in_, "Linear forward {} into [{} -> {}]",
                  x.shapeString(), in_, out_);
    tensor::matmulBiasAct(x, weight, bias, relu, y);
}

void
Linear::backward(const tensor::Tensor& x, const tensor::Tensor& dy,
                 tensor::Tensor& dx)
{
    backwardNoInputGrad(x, dy);
    // dx = dy W^T
    tensor::matmulTransB(dy, weight, dx);
}

void
Linear::backwardNoInputGrad(const tensor::Tensor& x,
                            const tensor::Tensor& dy)
{
    RECSIM_ASSERT(dy.cols() == out_ && dy.rows() == x.rows(),
                  "Linear backward dy {} vs x {}", dy.shapeString(),
                  x.shapeString());
    // dW += x^T dy ; db += column sums of dy. The scratch tensors are
    // members so their buffers persist across steps.
    tensor::matmulTransA(x, dy, dw_scratch_);
    tensor::axpy(1.0f, dw_scratch_, gradWeight);
    tensor::sumRows(dy, db_scratch_);
    tensor::axpy(1.0f, db_scratch_, gradBias);
}

void
Linear::backwardFused(const tensor::Tensor& x, const tensor::Tensor& dy,
                      tensor::Tensor& dx,
                      const tensor::Tensor* relu_mask)
{
    backwardNoInputGradFused(x, dy);
    tensor::matmulTransBMask(dy, weight, relu_mask, dx);
}

void
Linear::backwardNoInputGradFused(const tensor::Tensor& x,
                                 const tensor::Tensor& dy)
{
    RECSIM_ASSERT(dy.cols() == out_ && dy.rows() == x.rows(),
                  "Linear backward dy {} vs x {}", dy.shapeString(),
                  x.shapeString());
    // Same grads as backwardNoInputGrad — the scratch-then-axpy shape
    // is kept (accumulating into gradWeight directly would change the
    // rounding order); only the sumRows pass folds into the GEMM.
    tensor::matmulTransABiasGrad(x, dy, dw_scratch_, db_scratch_);
    tensor::axpy(1.0f, dw_scratch_, gradWeight);
    tensor::axpy(1.0f, db_scratch_, gradBias);
}

void
Linear::zeroGrad()
{
    gradWeight.zero();
    gradBias.zero();
}

} // namespace nn
} // namespace recsim
