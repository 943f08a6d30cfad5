#include "nn/loss.h"

#include <cmath>

#include "util/logging.h"

namespace recsim {
namespace nn {

namespace {

/** log(1 + exp(x)) without overflow. */
double
softplus(double x)
{
    if (x > 30.0)
        return x;
    if (x < -30.0)
        return 0.0;
    return std::log1p(std::exp(x));
}

double
sigmoid(double x)
{
    if (x >= 0.0)
        return 1.0 / (1.0 + std::exp(-x));
    const double e = std::exp(x);
    return e / (1.0 + e);
}

} // namespace

double
bceWithLogits(const tensor::Tensor& logits,
              const std::vector<float>& labels, tensor::Tensor& d_logits)
{
    const std::size_t b = labels.size();
    RECSIM_ASSERT(logits.size() == b, "loss: {} logits for {} labels",
                  logits.size(), b);
    if (d_logits.size() != logits.size() ||
        d_logits.rank() != logits.rank()) {
        d_logits = logits;
    }
    double total = 0.0;
    const float inv_b = 1.0f / static_cast<float>(b);
    for (std::size_t i = 0; i < b; ++i) {
        const double z = logits.data()[i];
        const double y = labels[i];
        // BCE(z, y) = softplus(z) - y*z  (stable for both signs of z).
        total += softplus(z) - y * z;
        d_logits.data()[i] =
            static_cast<float>(sigmoid(z) - y) * inv_b;
    }
    return total / static_cast<double>(b);
}

double
bceWithLogitsLoss(const tensor::Tensor& logits,
                  const std::vector<float>& labels)
{
    const std::size_t b = labels.size();
    RECSIM_ASSERT(logits.size() == b, "loss: {} logits for {} labels",
                  logits.size(), b);
    double total = 0.0;
    for (std::size_t i = 0; i < b; ++i) {
        const double z = logits.data()[i];
        total += softplus(z) - static_cast<double>(labels[i]) * z;
    }
    return total / static_cast<double>(b);
}

double
normalizedEntropy(const tensor::Tensor& logits,
                  const std::vector<float>& labels)
{
    const std::size_t b = labels.size();
    RECSIM_ASSERT(b > 0, "normalized entropy of empty batch");
    double positives = 0.0;
    for (float y : labels)
        positives += y;
    const double p = positives / static_cast<double>(b);
    if (p <= 0.0 || p >= 1.0) {
        // Degenerate label set: the base-rate entropy is 0, NE undefined;
        // report raw BCE so callers still get a finite signal.
        return bceWithLogitsLoss(logits, labels);
    }
    const double base_entropy = -(p * std::log(p) +
                                  (1.0 - p) * std::log(1.0 - p));
    return bceWithLogitsLoss(logits, labels) / base_entropy;
}

double
accuracy(const tensor::Tensor& logits, const std::vector<float>& labels)
{
    const std::size_t b = labels.size();
    RECSIM_ASSERT(logits.size() == b && b > 0, "accuracy shape mismatch");
    std::size_t correct = 0;
    for (std::size_t i = 0; i < b; ++i) {
        const bool pred = logits.data()[i] > 0.0f;
        const bool truth = labels[i] > 0.5f;
        correct += pred == truth;
    }
    return static_cast<double>(correct) / static_cast<double>(b);
}

} // namespace nn
} // namespace recsim
