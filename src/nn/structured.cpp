#include "nn/structured.h"

#include <cmath>

#include "linalg/gemm.h"

namespace repro::nn {

void BiasMixin::addBias(Matrix& y) const {
  for (std::size_t r = 0; r < y.rows(); ++r) {
    float* row = y.data() + r * y.cols();
    for (std::size_t c = 0; c < b_.size(); ++c) row[c] += b_[c];
  }
}

void BiasMixin::biasGrad(const Matrix& dy) {
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const float* row = dy.data() + r * dy.cols();
    for (std::size_t c = 0; c < b_grad_.size(); ++c) b_grad_[c] += row[c];
  }
}

// ---------------------------------------------------------------- Butterfly

ButterflyLayer::ButterflyLayer(std::size_t n, core::ButterflyParam param,
                               Rng& rng, bool with_permutation)
    : BiasMixin(n), bf_(n, param, with_permutation, rng) {}

void ButterflyLayer::Forward(const Matrix& x, Matrix& y, bool train) {
  if (y.rows() != x.rows() || y.cols() != bf_.n()) y = Matrix(x.rows(), bf_.n());
  bf_.Forward(x, y, train ? &ws_ : nullptr);
  addBias(y);
}

void ButterflyLayer::Backward(const Matrix& dy, Matrix* dx) {
  biasGrad(dy);
  // The factor chain carries the input gradient down to factor 0 anyway;
  // without a reader it lands in a scratch matrix.
  Matrix unread;
  bf_.Backward(ws_, dy, dx != nullptr ? *dx : unread);
}

std::vector<ParamRef> ButterflyLayer::parameters() {
  return {{bf_.params(), bf_.grads()},
          {{b_.data(), b_.size()}, {b_grad_.data(), b_grad_.size()}}};
}

// ----------------------------------------------------------------- Pixelfly

PixelflyLayer::PixelflyLayer(const core::PixelflyConfig& config, Rng& rng)
    : BiasMixin(config.n), pf_(config, rng) {}

void PixelflyLayer::Forward(const Matrix& x, Matrix& y, bool train) {
  if (y.rows() != x.rows() || y.cols() != pf_.n()) y = Matrix(x.rows(), pf_.n());
  pf_.Forward(x, y, train ? &ws_ : nullptr);
  addBias(y);
}

void PixelflyLayer::Backward(const Matrix& dy, Matrix* dx) {
  biasGrad(dy);
  pf_.Backward(ws_, dy, dx);
}

std::vector<ParamRef> PixelflyLayer::parameters() {
  return {{pf_.blockParams(), pf_.blockGrads()},
          {pf_.uParams(), pf_.uGrads()},
          {pf_.vParams(), pf_.vGrads()},
          {{b_.data(), b_.size()}, {b_grad_.data(), b_grad_.size()}}};
}

// ----------------------------------------------------------------- Fastfood

FastfoodLayer::FastfoodLayer(std::size_t n, Rng& rng)
    : BiasMixin(n), n_(n), perm_(core::Permutation::Random(n, rng)) {
  bdiag_.resize(n);
  gdiag_.resize(n);
  sdiag_.resize(n);
  // Standard fastfood scaling: B ~ +-1, G ~ N(0,1), S corrects the norm.
  for (std::size_t i = 0; i < n; ++i) {
    bdiag_[i] = rng.Uniform() < 0.5 ? -1.0f : 1.0f;
    gdiag_[i] = static_cast<float>(rng.Normal());
    sdiag_[i] = 1.0f;
  }
  bdiag_g_.assign(n, 0.0f);
  gdiag_g_.assign(n, 0.0f);
  sdiag_g_.assign(n, 0.0f);
}

void FastfoodLayer::Forward(const Matrix& x, Matrix& y, bool train) {
  REPRO_REQUIRE(x.cols() == n_, "Fastfood forward dim mismatch");
  const std::size_t batch = x.rows();
  if (y.rows() != batch || y.cols() != n_) y = Matrix(batch, n_);

  Matrix t = x;
  // t = B . x
  for (std::size_t r = 0; r < batch; ++r) {
    float* row = t.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) row[i] *= bdiag_[i];
  }
  if (train) x0_ = x;
  core::FwhtRows(t);  // t = H B x
  if (train) x2_ = t;
  Matrix p(batch, n_);
  perm_.ApplyToColumns(t, p);  // p = Pi H B x
  if (train) x3_ = p;
  for (std::size_t r = 0; r < batch; ++r) {
    float* row = p.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) row[i] *= gdiag_[i];
  }
  core::FwhtRows(p);  // p = H G Pi H B x
  if (train) x5_ = p;
  for (std::size_t r = 0; r < batch; ++r) {
    const float* src = p.data() + r * n_;
    float* dst = y.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) dst[i] = sdiag_[i] * src[i];
  }
  addBias(y);
}

void FastfoodLayer::Backward(const Matrix& dy, Matrix* dx) {
  const std::size_t batch = dy.rows();
  REPRO_REQUIRE(x0_.rows() == batch, "Fastfood backward without cache");
  biasGrad(dy);

  Matrix g = dy;
  // dS and d5 = S . dy
  for (std::size_t r = 0; r < batch; ++r) {
    float* grow = g.data() + r * n_;
    const float* x5row = x5_.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      sdiag_g_[i] += grow[i] * x5row[i];
      grow[i] *= sdiag_[i];
    }
  }
  core::FwhtRows(g);  // H is self-adjoint (orthonormal): d4 = H d5
  // dG and d3 = G . d4
  for (std::size_t r = 0; r < batch; ++r) {
    float* grow = g.data() + r * n_;
    const float* x3row = x3_.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      gdiag_g_[i] += grow[i] * x3row[i];
      grow[i] *= gdiag_[i];
    }
  }
  // Undo the permutation: forward p[i] = t[perm[i]] => dt[perm[i]] += dp[i].
  Matrix g2(batch, n_);
  for (std::size_t r = 0; r < batch; ++r) {
    const float* src = g.data() + r * n_;
    float* dst = g2.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) dst[perm_[i]] = src[i];
  }
  core::FwhtRows(g2);  // d1 = H d2
  // dB and dx = B . d1
  if (dx != nullptr && (dx->rows() != batch || dx->cols() != n_)) {
    *dx = Matrix(batch, n_);
  }
  for (std::size_t r = 0; r < batch; ++r) {
    const float* grow = g2.data() + r * n_;
    const float* x0row = x0_.data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) bdiag_g_[i] += grow[i] * x0row[i];
    if (dx == nullptr) continue;
    float* dxrow = dx->data() + r * n_;
    for (std::size_t i = 0; i < n_; ++i) dxrow[i] = grow[i] * bdiag_[i];
  }
}

std::vector<ParamRef> FastfoodLayer::parameters() {
  return {{{bdiag_.data(), n_}, {bdiag_g_.data(), n_}},
          {{gdiag_.data(), n_}, {gdiag_g_.data(), n_}},
          {{sdiag_.data(), n_}, {sdiag_g_.data(), n_}},
          {{b_.data(), b_.size()}, {b_grad_.data(), b_grad_.size()}}};
}

// ---------------------------------------------------------------- Circulant

CirculantLayer::CirculantLayer(std::size_t n, Rng& rng)
    : BiasMixin(n), n_(n) {
  c_.resize(n);
  c_grad_.assign(n, 0.0f);
  rng.FillNormal(c_.data(), n, 1.0f / std::sqrt(static_cast<float>(n)));
  if (core::CircularUsesFft(n)) {
    plan_.emplace(n);
    c_spec_.resize(n);
    work_.resize(n);
  }
}

void CirculantLayer::Forward(const Matrix& x, Matrix& y, bool train) {
  REPRO_REQUIRE(x.cols() == n_, "Circulant forward dim mismatch");
  const std::size_t batch = x.rows();
  if (y.rows() != batch || y.cols() != n_) y = Matrix(batch, n_);
  if (plan_) {
    core::RealSpectrum(*plan_, c_, c_spec_);
    if (train) x_spec_.resize(batch * n_);
    for (std::size_t r = 0; r < batch; ++r) {
      const std::span<core::Cpx> spec =
          train ? std::span<core::Cpx>(x_spec_).subspan(r * n_, n_)
                : std::span<core::Cpx>(work_);
      core::RealSpectrum(*plan_, x.row(r), spec);
      core::ConvolveSpectra(*plan_, c_spec_, spec, work_, y.row(r));
    }
  } else {
    for (std::size_t r = 0; r < batch; ++r) {
      core::CircularConvolve(c_, x.row(r), y.row(r));
    }
    if (train) x_cache_ = x;
  }
  addBias(y);
  if (train) trained_rows_ = batch;
}

void CirculantLayer::Backward(const Matrix& dy, Matrix* dx) {
  const std::size_t batch = dy.rows();
  REPRO_REQUIRE(trained_rows_ == batch && dy.cols() == n_,
                "Circulant backward without cache");
  biasGrad(dy);
  if (dx != nullptr && (dx->rows() != batch || dx->cols() != n_)) {
    *dx = Matrix(batch, n_);
  }
  // dc[j] = sum_i dy[i] x[(i-j) mod n] ; dx[k] = sum_i dy[i] c[(i-k) mod n].
  std::vector<float> dc(n_);
  std::vector<core::Cpx> dy_spec(plan_ ? n_ : 0);
  if (plan_ && dx != nullptr) core::RealSpectrum(*plan_, c_, c_spec_);
  for (std::size_t r = 0; r < batch; ++r) {
    if (plan_) {
      core::RealSpectrum(*plan_, dy.row(r), dy_spec);
      core::CorrelateSpectra(
          *plan_, std::span<const core::Cpx>(x_spec_).subspan(r * n_, n_),
          dy_spec, work_, dc);
      if (dx != nullptr) {
        core::CorrelateSpectra(*plan_, c_spec_, dy_spec, work_, dx->row(r));
      }
    } else {
      core::CircularCorrelate(x_cache_.row(r), dy.row(r), dc);
      if (dx != nullptr) core::CircularCorrelate(c_, dy.row(r), dx->row(r));
    }
    for (std::size_t j = 0; j < n_; ++j) c_grad_[j] += dc[j];
  }
}

std::vector<ParamRef> CirculantLayer::parameters() {
  return {{{c_.data(), n_}, {c_grad_.data(), n_}},
          {{b_.data(), b_.size()}, {b_grad_.data(), b_grad_.size()}}};
}

// ----------------------------------------------------------------- Low-rank

LowRankLayer::LowRankLayer(std::size_t in, std::size_t out, std::size_t rank,
                           Rng& rng)
    : BiasMixin(out),
      in_(in),
      out_(out),
      rank_(rank),
      u_(in, rank),
      u_grad_(in, rank),
      v_(rank, out),
      v_grad_(rank, out) {
  const float ub = std::sqrt(6.0f / static_cast<float>(in));
  const float vb = std::sqrt(6.0f / static_cast<float>(rank));
  rng.FillUniform(u_.data(), u_.size(), -ub, ub);
  rng.FillUniform(v_.data(), v_.size(), -vb, vb);
}

void LowRankLayer::Forward(const Matrix& x, Matrix& y, bool train) {
  REPRO_REQUIRE(x.cols() == in_, "LowRank forward dim mismatch");
  const std::size_t batch = x.rows();
  if (y.rows() != batch || y.cols() != out_) y = Matrix(batch, out_);
  Matrix t(batch, rank_);
  GemmBlocked(x, u_, t);
  GemmBlocked(t, v_, y);
  addBias(y);
  if (train) {
    x_cache_ = x;
    t_cache_ = std::move(t);
  }
}

void LowRankLayer::Backward(const Matrix& dy, Matrix* dx) {
  biasGrad(dy);
  const std::size_t batch = dy.rows();
  // dV += T^T dY ; dT = dY V^T ; dU += X^T dT ; dX = dT U^T.
  GemmTransA(t_cache_, dy, v_grad_, true);
  Matrix dt(batch, rank_);
  GemmTransB(dy, v_, dt);
  GemmTransA(x_cache_, dt, u_grad_, true);
  if (dx == nullptr) return;
  if (dx->rows() != batch || dx->cols() != in_) *dx = Matrix(batch, in_);
  GemmTransB(dt, u_, *dx);
}

std::vector<ParamRef> LowRankLayer::parameters() {
  return {{{u_.data(), u_.size()}, {u_grad_.data(), u_grad_.size()}},
          {{v_.data(), v_.size()}, {v_grad_.data(), v_grad_.size()}},
          {{b_.data(), b_.size()}, {b_grad_.data(), b_grad_.size()}}};
}

}  // namespace repro::nn
