#include "core/block_butterfly.h"

#include <cmath>

#include "util/bitops.h"
#include "util/error.h"

namespace repro::core {

BlockButterfly::BlockButterfly(std::size_t n, std::size_t block_size,
                               std::size_t butterfly_size, Rng& rng)
    : n_(n), b_(block_size) {
  REPRO_REQUIRE(b_ > 0 && n_ % b_ == 0, "block size %zu must divide n %zu", b_,
                n_);
  grid_ = n_ / b_;
  REPRO_REQUIRE(IsPow2(butterfly_size) && butterfly_size >= 2 &&
                    butterfly_size <= grid_,
                "butterfly size must be a power of two in [2, grid]");
  levels_ = Log2(butterfly_size);
  params_.resize(levels_ * grid_ * 2 * b_ * b_);
  // Near-identity init: the diagonal block starts at I + noise, the partner
  // block at noise, so the product is well conditioned from the start.
  const float scale = 0.5f / std::sqrt(static_cast<float>(b_));
  rng.FillNormal(params_.data(), params_.size(), scale);
  for (std::size_t k = 0; k < levels_; ++k) {
    for (std::size_t i = 0; i < grid_; ++i) {
      float* diag = params_.data() +
                    ((k * grid_ + i) * 2 + 0) * b_ * b_;
      for (std::size_t d = 0; d < b_; ++d) diag[d * b_ + d] += 1.0f;
    }
  }
}

const float* BlockButterfly::block(std::size_t k, std::size_t i,
                                   int which) const {
  return params_.data() + ((k * grid_ + i) * 2 + which) * b_ * b_;
}

void BlockButterfly::applyFactor(std::size_t k, const Matrix& in,
                                 Matrix& out) const {
  const std::uint32_t bit = 1u << k;
  for (std::size_t r = 0; r < in.rows(); ++r) {
    const float* src = in.data() + r * n_;
    float* dst = out.data() + r * n_;
    for (std::size_t i = 0; i < grid_; ++i) {
      const std::size_t j = i ^ bit;  // partner block column
      const float* wd = block(k, i, 0);
      const float* wp = block(k, i, 1);
      const float* xd = src + i * b_;
      const float* xp = src + j * b_;
      float* y = dst + i * b_;
      for (std::size_t row = 0; row < b_; ++row) {
        float acc = 0.0f;
        const float* wdr = wd + row * b_;
        const float* wpr = wp + row * b_;
        for (std::size_t c = 0; c < b_; ++c) {
          acc += wdr[c] * xd[c] + wpr[c] * xp[c];
        }
        y[row] = acc;
      }
    }
  }
}

void BlockButterfly::Forward(const Matrix& x, Matrix& y) const {
  REPRO_REQUIRE(x.cols() == n_ && y.rows() == x.rows() && y.cols() == n_,
                "block butterfly forward shape mismatch");
  Matrix cur = x;
  Matrix next(x.rows(), n_);
  for (std::size_t k = 0; k < levels_; ++k) {
    applyFactor(k, cur, next);
    std::swap(cur, next);
  }
  y = std::move(cur);
}

Matrix BlockButterfly::ToDense() const {
  Matrix basis = Matrix::Identity(n_);
  Matrix out(n_, n_);
  Forward(basis, out);
  return out.Transposed();
}

}  // namespace repro::core
