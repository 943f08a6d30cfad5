/**
 * @file
 * The graph-free reference walk of one training step: Dlrm::forward()
 * (the forward oracle), the loss, then Dlrm's backward primitives in a
 * fixed hand-written order, with no StepGraph and no GraphExecutor.
 * The executor and gradient-check suites compare the executor against
 * it, which checks that dispatch sends each node kind to the right
 * primitive: the executor's two schedules share that dispatch, so
 * they cannot check it against each other. The model, mixed-dims,
 * checkpoint and embedding-backend suites train through it too.
 */
#pragma once

#include <cstddef>

#include "data/dataset.h"
#include "model/dlrm.h"
#include "nn/loss.h"
#include "tensor/tensor.h"

namespace recsim::test {

/**
 * Forward, loss and full backward of one step. Dense grads accumulate
 * in the layers; sparse grads are stored per table (sparseGrads()).
 * @return Mean BCE loss of the batch.
 */
inline double
referenceForwardBackward(model::Dlrm& model, const data::MiniBatch& batch)
{
    tensor::Tensor logits;
    model.forward(batch, logits);
    const double loss = model.lossBackward(batch);
    for (std::size_t i = model.topMlp().numLayers(); i-- > 0;)
        model.backwardTopLayer(i);
    model.backwardInteraction();
    for (std::size_t i = model.bottomMlp().numLayers(); i-- > 0;)
        model.backwardBottomLayer(i, batch);
    for (std::size_t f = 0; f < model.tables().size(); ++f) {
        // Tables narrower than the shared width have a projection.
        if (model.tables()[f].dim() != model.config().emb_dim)
            model.backwardProjection(f);
        model.backwardEmbedding(f, batch);
    }
    return loss;
}

/** Mean BCE loss of a forward pass; grads are left alone. */
inline double
referenceLoss(model::Dlrm& model, const data::MiniBatch& batch)
{
    tensor::Tensor logits;
    model.forward(batch, logits);
    return nn::bceWithLogitsLoss(logits, batch.labels);
}

/** Normalized entropy of a forward pass on @p batch. */
inline double
referenceNormalizedEntropy(model::Dlrm& model,
                           const data::MiniBatch& batch)
{
    tensor::Tensor logits;
    model.forward(batch, logits);
    return nn::normalizedEntropy(logits, batch.labels);
}

} // namespace recsim::test
