#include "core/pixelfly.h"

#include <cmath>

#include "linalg/gemm.h"
#include "util/bitops.h"
#include "util/error.h"

namespace repro::core {

std::size_t PixelflyConfig::paramCount() const {
  const std::size_t levels = Log2(butterfly_size);
  return 2 * grid() * levels * block_size * block_size + 2 * n * low_rank;
}

std::vector<BlockCoord> FlatButterflyPattern(std::size_t n, std::size_t block,
                                             std::size_t butterfly_size) {
  REPRO_REQUIRE(block > 0 && n % block == 0,
                "block size %zu must divide n %zu", block, n);
  const std::size_t grid = n / block;
  REPRO_REQUIRE(IsPow2(butterfly_size) && butterfly_size >= 2 &&
                    butterfly_size <= grid,
                "butterfly size %zu must be a power of two in [2, %zu]",
                butterfly_size, grid);
  const std::size_t levels = Log2(butterfly_size);
  std::vector<BlockCoord> coords;
  coords.reserve(2 * grid * levels);
  for (std::size_t k = 0; k < levels; ++k) {
    const std::uint32_t bit = 1u << k;
    for (std::uint32_t i = 0; i < grid; ++i) {
      coords.push_back({i, i});
      coords.push_back({i, i ^ bit});  // stays inside the s-group: bit < s
    }
  }
  return coords;
}

Pixelfly::Pixelfly(const PixelflyConfig& config, Rng& rng)
    : config_(config),
      u_(config.n, config.low_rank),
      u_grads_(config.n, config.low_rank),
      v_(config.n, config.low_rank),
      v_grads_(config.n, config.low_rank) {
  pattern_ = FlatButterflyPattern(config.n, config.block_size,
                                  config.butterfly_size);
  const std::size_t b2 = config.block_size * config.block_size;
  blocks_.resize(pattern_.size() * b2);
  block_grads_.assign(blocks_.size(), 0.0f);
  // Flat butterfly is a perturbation around the residual identity: blocks
  // start small so I + S + UV^T is near identity.
  const float bscale = 1.0f / std::sqrt(static_cast<float>(config.n));
  rng.FillNormal(blocks_.data(), blocks_.size(), bscale);
  if (config.low_rank > 0) {
    const float lrscale =
        1.0f / std::sqrt(static_cast<float>(config.low_rank) * config.n);
    rng.FillNormal(u_.data(), u_.size(), lrscale);
    rng.FillNormal(v_.data(), v_.size(), lrscale);
  }
}

void Pixelfly::Forward(const Matrix& x, Matrix& y, Workspace* ws) const {
  const std::size_t n = config_.n;
  const std::size_t b = config_.block_size;
  const std::size_t r = config_.low_rank;
  REPRO_REQUIRE(x.cols() == n && y.rows() == x.rows() && y.cols() == n,
                "pixelfly forward shape mismatch");
  const std::size_t batch = x.rows();
  if (config_.residual) {
    y = x;
  } else {
    y.Zero();
  }
  // Block-sparse term, one GEMM per block in pattern order:
  // Y[:, bi] += X[:, bj] W_q^T, each element summed from 0 over the block's
  // columns and then added to Y.
  const std::size_t b2 = b * b;
  for (std::size_t q = 0; q < pattern_.size(); ++q) {
    GemmStrided({.a = x.data() + pattern_[q].bj * b, .a_row = n, .a_col = 1,
                 .b = blocks_.data() + q * b2, .b_row = 1, .b_col = b,
                 .c = y.data() + pattern_[q].bi * b, .ldc = n,
                 .m = batch, .k = b, .n = b, .start = GemmStart::kAddAfter});
  }
  // Low-rank term: t = x V (batch x r), y += t U^T.
  Matrix t;
  if (r > 0) {
    t = Matrix(batch, r);
    GemmBlocked(x, v_, t);
    GemmTransB(t, u_, y, /*accumulate=*/true);
  }
  if (ws != nullptr) {
    ws->x = x;
    ws->t = std::move(t);
  }
}

void Pixelfly::Backward(const Workspace& ws, const Matrix& dy, Matrix* dx) {
  const std::size_t n = config_.n;
  const std::size_t b = config_.block_size;
  const std::size_t r = config_.low_rank;
  const std::size_t batch = dy.rows();
  REPRO_REQUIRE(ws.x.rows() == batch && dy.cols() == n,
                "pixelfly backward shape mismatch");
  if (dx != nullptr) *dx = config_.residual ? dy : Matrix(batch, n);

  // Block-sparse term, per block in pattern order, both sums from C over
  // the batch rows and the block's rows respectively:
  // dW_q += dY[:, bi]^T X[:, bj] and dX[:, bj] += dY[:, bi] W_q.
  const std::size_t b2 = b * b;
  for (std::size_t q = 0; q < pattern_.size(); ++q) {
    const float* gy = dy.data() + pattern_[q].bi * b;
    GemmStrided({.a = gy, .a_row = 1, .a_col = n,
                 .b = ws.x.data() + pattern_[q].bj * b, .b_row = n, .b_col = 1,
                 .c = block_grads_.data() + q * b2, .ldc = b,
                 .m = b, .k = batch, .n = b, .start = GemmStart::kFromC});
    if (dx == nullptr) continue;
    GemmStrided({.a = gy, .a_row = n, .a_col = 1,
                 .b = blocks_.data() + q * b2, .b_row = b, .b_col = 1,
                 .c = dx->data() + pattern_[q].bj * b, .ldc = n,
                 .m = batch, .k = b, .n = b, .start = GemmStart::kFromC});
  }
  if (r == 0) return;
  // dT = dY U ; dU += dY^T T ; dV += X^T dT ; dX += dT V^T.
  Matrix dt(batch, r);
  GemmBlocked(dy, u_, dt);
  GemmTransA(dy, ws.t, u_grads_, /*accumulate=*/true);
  GemmTransA(ws.x, dt, v_grads_, /*accumulate=*/true);
  if (dx != nullptr) GemmTransB(dt, v_, *dx, /*accumulate=*/true);
}

Matrix Pixelfly::ToDense() const {
  const std::size_t n = config_.n;
  Matrix basis = Matrix::Identity(n);
  Matrix out(n, n);
  Forward(basis, out);
  return out.Transposed();
}

}  // namespace repro::core
