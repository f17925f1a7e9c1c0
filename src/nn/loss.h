// Softmax cross-entropy loss with gradient, plus accuracy metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace repro::nn {

struct LossResult {
  double loss = 0.0;        // mean over the batch
  double accuracy = 0.0;    // fraction correct
};

// Computes mean cross-entropy of softmax(logits) against labels, and (when
// dlogits != nullptr) the gradient d(mean CE)/d(logits).
LossResult SoftmaxCrossEntropy(const Matrix& logits,
                               const std::vector<std::uint8_t>& labels,
                               Matrix* dlogits = nullptr);

}  // namespace repro::nn
