#include "nn/activations.h"

namespace repro::nn {

void Relu::Forward(const Matrix& x, Matrix& y, bool train) {
  REPRO_REQUIRE(x.cols() == dim_, "Relu dim mismatch");
  if (y.rows() != x.rows() || y.cols() != dim_) y = Matrix(x.rows(), dim_);
  if (train && (mask_.rows() != x.rows() || mask_.cols() != dim_)) {
    mask_ = Matrix(x.rows(), dim_);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool pos = x.data()[i] > 0.0f;
    y.data()[i] = pos ? x.data()[i] : 0.0f;
    if (train) mask_.data()[i] = pos ? 1.0f : 0.0f;
  }
}

void Relu::Backward(const Matrix& dy, Matrix* dx) {
  REPRO_REQUIRE(mask_.rows() == dy.rows(), "Relu backward without cache");
  if (dx == nullptr) return;
  if (dx->rows() != dy.rows() || dx->cols() != dim_) {
    *dx = Matrix(dy.rows(), dim_);
  }
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dx->data()[i] = dy.data()[i] * mask_.data()[i];
  }
}

}  // namespace repro::nn
