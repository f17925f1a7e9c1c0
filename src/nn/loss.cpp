#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace repro::nn {

LossResult SoftmaxCrossEntropy(const Matrix& logits,
                               const std::vector<std::uint8_t>& labels,
                               Matrix* dlogits) {
  const std::size_t batch = logits.rows();
  const std::size_t classes = logits.cols();
  REPRO_REQUIRE(labels.size() == batch, "loss label count mismatch");
  if (dlogits != nullptr &&
      (dlogits->rows() != batch || dlogits->cols() != classes)) {
    *dlogits = Matrix(batch, classes);
  }
  LossResult res;
  std::size_t correct = 0;
  for (std::size_t r = 0; r < batch; ++r) {
    const float* row = logits.data() + r * classes;
    float maxv = row[0];
    std::size_t argmax = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (row[c] > maxv) {
        maxv = row[c];
        argmax = c;
      }
    }
    if (argmax == labels[r]) ++correct;
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      denom += std::exp(static_cast<double>(row[c]) - maxv);
    }
    const double logprob =
        static_cast<double>(row[labels[r]]) - maxv - std::log(denom);
    res.loss -= logprob;
    if (dlogits != nullptr) {
      float* drow = dlogits->data() + r * classes;
      for (std::size_t c = 0; c < classes; ++c) {
        const double p = std::exp(static_cast<double>(row[c]) - maxv) / denom;
        drow[c] = static_cast<float>(
            (p - (c == labels[r] ? 1.0 : 0.0)) / static_cast<double>(batch));
      }
    }
  }
  res.loss /= static_cast<double>(batch);
  res.accuracy = static_cast<double>(correct) / static_cast<double>(batch);
  return res;
}

}  // namespace repro::nn
