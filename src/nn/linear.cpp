#include "nn/linear.h"

#include <cmath>

#include "linalg/gemm.h"

namespace repro::nn {

Linear::Linear(std::size_t in, std::size_t out, Rng& rng, bool bias)
    : in_(in), out_(out), w_(in, out), w_grad_(in, out) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in));
  rng.FillUniform(w_.data(), w_.size(), -bound, bound);
  if (bias) {
    b_.assign(out, 0.0f);
    b_grad_.assign(out, 0.0f);
  }
}

void Linear::Forward(const Matrix& x, Matrix& y, bool train) {
  REPRO_REQUIRE(x.cols() == in_, "Linear forward dim mismatch");
  if (y.rows() != x.rows() || y.cols() != out_) y = Matrix(x.rows(), out_);
  GemmBlocked(x, w_, y);
  if (!b_.empty()) {
    for (std::size_t r = 0; r < y.rows(); ++r) {
      float* row = y.data() + r * out_;
      for (std::size_t c = 0; c < out_; ++c) row[c] += b_[c];
    }
  }
  if (train) x_cache_ = x;
}

void Linear::Backward(const Matrix& dy, Matrix* dx) {
  REPRO_REQUIRE(x_cache_.rows() == dy.rows(), "Linear backward without cache");
  // dW += X^T dY ; db += sum dY ; dX = dY W^T.
  GemmTransA(x_cache_, dy, w_grad_, /*accumulate=*/true);
  if (!b_.empty()) {
    for (std::size_t r = 0; r < dy.rows(); ++r) {
      const float* row = dy.data() + r * out_;
      for (std::size_t c = 0; c < out_; ++c) b_grad_[c] += row[c];
    }
  }
  if (dx == nullptr) return;
  if (dx->rows() != dy.rows() || dx->cols() != in_) {
    *dx = Matrix(dy.rows(), in_);
  }
  GemmTransB(dy, w_, *dx);
}

std::vector<ParamRef> Linear::parameters() {
  std::vector<ParamRef> ps;
  ps.push_back({{w_.data(), w_.size()}, {w_grad_.data(), w_grad_.size()}});
  if (!b_.empty()) ps.push_back({{b_.data(), b_.size()}, {b_grad_.data(), b_grad_.size()}});
  return ps;
}

}  // namespace repro::nn
