#include "core/butterfly.h"

#include <cmath>

#include "util/bitops.h"
#include "util/error.h"

namespace repro::core {
namespace {

// Pair index for (factor stride s, block base, offset i): pairs are numbered
// contiguously in traversal order, which both apply and grad loops share.
}  // namespace

Butterfly::Butterfly(std::size_t n, ButterflyParam param, bool with_permutation,
                     Rng& rng)
    : n_(n), num_factors_(Log2(n)), param_(param) {
  REPRO_REQUIRE(IsPow2(n) && n >= 2, "butterfly size must be a power of two >= 2");
  if (with_permutation) perm_ = Permutation::BitReversal(n);
  params_.resize(paramsPerFactor() * num_factors_);
  grads_.assign(params_.size(), 0.0f);

  const std::size_t pairs = n_ / 2;
  if (param_ == ButterflyParam::kGivens) {
    // Random rotations: every factor is exactly orthogonal, so the product
    // is orthogonal at initialisation (well-conditioned training).
    for (auto& p : params_) {
      p = static_cast<float>(rng.Uniform(-M_PI, M_PI));
    }
  } else {
    // Haar-ish: random rotation plus small noise on each block entry keeps
    // the product near-orthogonal at init (same scheme as the reference
    // butterfly implementation: 2x2 blocks with orthogonal init).
    for (std::size_t f = 0; f < num_factors_; ++f) {
      float* w = params_.data() + f * paramsPerFactor();
      for (std::size_t p = 0; p < pairs; ++p) {
        const double theta = rng.Uniform(-M_PI, M_PI);
        const float c = static_cast<float>(std::cos(theta));
        const float s = static_cast<float>(std::sin(theta));
        w[4 * p + 0] = c;
        w[4 * p + 1] = -s;
        w[4 * p + 2] = s;
        w[4 * p + 3] = c;
      }
    }
  }
}

std::size_t Butterfly::paramsPerFactor() const {
  return param_ == ButterflyParam::kGivens ? n_ / 2 : 2 * n_;
}

void Butterfly::applyFactor(std::size_t f, const Matrix& in, Matrix& out) const {
  const std::size_t stride = std::size_t{1} << f;
  const std::vector<float> w = FactorCoeffs(f);
  for (std::size_t r = 0; r < in.rows(); ++r) {
    const float* src = in.data() + r * n_;
    float* dst = out.data() + r * n_;
    const float* blk = w.data();
    for (std::size_t base = 0; base < n_; base += 2 * stride) {
      for (std::size_t i = 0; i < stride; ++i, blk += 4) {
        const float top = src[base + i];
        const float bot = src[base + stride + i];
        dst[base + i] = blk[0] * top + blk[1] * bot;
        dst[base + stride + i] = blk[2] * top + blk[3] * bot;
      }
    }
  }
}

void Butterfly::Forward(const Matrix& x, Matrix& y, Workspace* ws) const {
  REPRO_REQUIRE(x.cols() == n_ && y.rows() == x.rows() && y.cols() == n_,
                "butterfly forward shape mismatch (%zux%zu, n=%zu)", x.rows(),
                x.cols(), n_);
  Matrix cur(x.rows(), n_);
  if (perm_.size() == n_) {
    perm_.ApplyToColumns(x, cur);
  } else {
    cur = x;
  }
  if (ws != nullptr) {
    ws->acts.clear();
    ws->acts.reserve(num_factors_ + 1);
    ws->acts.push_back(cur);
  }
  Matrix next(x.rows(), n_);
  for (std::size_t f = 0; f < num_factors_; ++f) {
    applyFactor(f, cur, next);
    std::swap(cur, next);
    if (ws != nullptr && f + 1 < num_factors_) ws->acts.push_back(cur);
  }
  y = std::move(cur);
}

void Butterfly::Backward(const Workspace& ws, const Matrix& dy, Matrix& dx) {
  REPRO_REQUIRE(ws.acts.size() == num_factors_, "stale butterfly workspace");
  REPRO_REQUIRE(dy.cols() == n_, "butterfly backward shape mismatch");
  const std::size_t batch = dy.rows();
  REPRO_REQUIRE(ws.acts.front().rows() == batch,
                "butterfly backward without cache: %zu rows cached, dy has %zu",
                ws.acts.front().rows(), batch);
  Matrix grad = dy;       // gradient flowing backwards through factors
  Matrix prev(batch, n_);  // gradient w.r.t. factor input
  for (std::size_t fi = num_factors_; fi-- > 0;) {
    const Matrix& input = ws.acts[fi];  // input to factor fi
    const std::size_t stride = std::size_t{1} << fi;
    const std::vector<float> w = FactorCoeffs(fi);
    float* g = grads_.data() + fi * paramsPerFactor();
    for (std::size_t r = 0; r < batch; ++r) {
      const float* gy = grad.data() + r * n_;
      const float* xin = input.data() + r * n_;
      float* gx = prev.data() + r * n_;
      std::size_t p = 0;
      for (std::size_t base = 0; base < n_; base += 2 * stride) {
        for (std::size_t i = 0; i < stride; ++i, ++p) {
          const float a = w[4 * p + 0], b = w[4 * p + 1];
          const float c = w[4 * p + 2], d = w[4 * p + 3];
          const float top = xin[base + i];
          const float bot = xin[base + stride + i];
          const float gt = gy[base + i];
          const float gb = gy[base + stride + i];
          // dx = W^T dy
          gx[base + i] = a * gt + c * gb;
          gx[base + stride + i] = b * gt + d * gb;
          if (param_ == ButterflyParam::kGivens) {
            // d/dtheta [c -s; s c] = [-s -c; c -s], with the block's own
            // cos (a = d) and sin (c = -b).
            const float ct = a;
            const float st = c;
            g[p] += gt * (-st * top - ct * bot) + gb * (ct * top - st * bot);
          } else {
            g[4 * p + 0] += gt * top;
            g[4 * p + 1] += gt * bot;
            g[4 * p + 2] += gb * top;
            g[4 * p + 3] += gb * bot;
          }
        }
      }
    }
    std::swap(grad, prev);
  }
  // Undo the input permutation: forward did y = x[perm], so dx[perm[i]] = g[i].
  if (perm_.size() == n_) {
    dx = Matrix(batch, n_);
    for (std::size_t r = 0; r < batch; ++r) {
      const float* src = grad.data() + r * n_;
      float* dst = dx.data() + r * n_;
      for (std::size_t i = 0; i < n_; ++i) dst[perm_[i]] = src[i];
    }
  } else {
    dx = std::move(grad);
  }
}

std::vector<float> Butterfly::FactorCoeffs(std::size_t f) const {
  REPRO_REQUIRE(f < num_factors_, "factor %zu out of %zu", f, num_factors_);
  const float* params = params_.data() + f * paramsPerFactor();
  if (param_ == ButterflyParam::kDense2x2) return {params, params + 2 * n_};
  std::vector<float> w(4 * (n_ / 2));
  for (std::size_t p = 0; p < n_ / 2; ++p) {
    const float ct = std::cos(params[p]);
    const float st = std::sin(params[p]);
    w[4 * p + 0] = ct;
    w[4 * p + 1] = -st;
    w[4 * p + 2] = st;
    w[4 * p + 3] = ct;
  }
  return w;
}

Matrix Butterfly::ToDense() const {
  Matrix basis = Matrix::Identity(n_);
  Matrix out(n_, n_);
  Forward(basis, out);
  // Rows of `out` are images of basis vectors under x -> x B^T, i.e.
  // out = B^T; the dense operator acting on column vectors is its transpose.
  return out.Transposed();
}

void Butterfly::zeroGrad() { grads_.assign(grads_.size(), 0.0f); }

}  // namespace repro::core
