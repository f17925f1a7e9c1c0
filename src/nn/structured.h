// Structured hidden layers: the compression methods of Table 4. Each wraps
// a core operator with a bias and the Layer interface. Parameter counts
// (excluding the bias) match the paper's Table 4 exactly for the SHL shape:
//   Butterfly (Givens) : (n/2) log2 n      = 5,120   (paper: 5,116)
//   Fastfood           : 3n                = 3,072   (exact)
//   Circulant          : n                 = 1,024   (exact)
//   Low-rank (r=1)     : 2n                = 2,048   (exact)
//   Pixelfly (16/64/96): 2(n/b)log2(s)b^2+2nr = 393,216 (exact)
#pragma once

#include <memory>
#include <optional>

#include "core/butterfly.h"
#include "core/fft.h"
#include "core/fwht.h"
#include "core/permutation.h"
#include "core/pixelfly.h"
#include "nn/layer.h"

namespace repro::nn {

// Shared bias handling for the structured layers.
class BiasMixin {
 protected:
  explicit BiasMixin(std::size_t out) : b_(out, 0.0f), b_grad_(out, 0.0f) {}
  void addBias(Matrix& y) const;
  void biasGrad(const Matrix& dy);
  std::vector<float> b_, b_grad_;
};

class ButterflyLayer : public Layer, private BiasMixin {
 public:
  ButterflyLayer(std::size_t n, core::ButterflyParam param, Rng& rng,
                 bool with_permutation = true);

  std::size_t inDim() const override { return bf_.n(); }
  std::size_t outDim() const override { return bf_.n(); }
  const char* name() const override { return "ButterflyLayer"; }
  void Forward(const Matrix& x, Matrix& y, bool train) override;
  void Backward(const Matrix& dy, Matrix* dx) override;
  std::vector<ParamRef> parameters() override;

  core::Butterfly& butterfly() { return bf_; }

 private:
  core::Butterfly bf_;
  core::Butterfly::Workspace ws_;
};

class PixelflyLayer : public Layer, private BiasMixin {
 public:
  PixelflyLayer(const core::PixelflyConfig& config, Rng& rng);

  std::size_t inDim() const override { return pf_.n(); }
  std::size_t outDim() const override { return pf_.n(); }
  const char* name() const override { return "PixelflyLayer"; }
  void Forward(const Matrix& x, Matrix& y, bool train) override;
  void Backward(const Matrix& dy, Matrix* dx) override;
  std::vector<ParamRef> parameters() override;

  core::Pixelfly& pixelfly() { return pf_; }

 private:
  core::Pixelfly pf_;
  core::Pixelfly::Workspace ws_;
};

// Fastfood: y = S H G Pi H B x with learnable diagonals S, G, B, a fixed
// random permutation Pi and orthonormal Hadamards.
class FastfoodLayer : public Layer, private BiasMixin {
 public:
  FastfoodLayer(std::size_t n, Rng& rng);

  std::size_t inDim() const override { return n_; }
  std::size_t outDim() const override { return n_; }
  const char* name() const override { return "FastfoodLayer"; }
  void Forward(const Matrix& x, Matrix& y, bool train) override;
  void Backward(const Matrix& dy, Matrix* dx) override;
  std::vector<ParamRef> parameters() override;

 private:
  std::size_t n_;
  std::vector<float> bdiag_, gdiag_, sdiag_;
  std::vector<float> bdiag_g_, gdiag_g_, sdiag_g_;
  core::Permutation perm_;
  // Cached stage activations for backward: x0, x2(=H B x), x3(=Pi..), x5(=H G ..).
  Matrix x0_, x2_, x3_, x5_;
};

// Circulant weight matrix: y = circ(c) x via FFT-based circular convolution.
// Bitwise per-row core::CircularConvolve (forward) and CircularCorrelate
// (backward). On their FFT path the layer holds one plan, transforms c once
// per Forward, and keeps each trained row's spectrum for Backward, which
// then transforms only dy: 4 FFTs per trained row (5 with dx), not 6 (9).
class CirculantLayer : public Layer, private BiasMixin {
 public:
  CirculantLayer(std::size_t n, Rng& rng);

  std::size_t inDim() const override { return n_; }
  std::size_t outDim() const override { return n_; }
  const char* name() const override { return "CirculantLayer"; }
  void Forward(const Matrix& x, Matrix& y, bool train) override;
  void Backward(const Matrix& dy, Matrix* dx) override;
  std::vector<ParamRef> parameters() override;

 private:
  std::size_t n_;
  std::vector<float> c_, c_grad_;
  std::optional<core::FftPlan> plan_;  // set when CircularUsesFft(n)
  // FFT path: c's spectrum, the trained rows' spectra (row-major,
  // trained_rows_ x n) and one row of scratch.
  std::vector<core::Cpx> c_spec_, x_spec_, work_;
  Matrix x_cache_;  // direct path: the trained rows
  std::size_t trained_rows_ = 0;
};

// Low-rank W = U V^T (in x rank)(rank x out).
class LowRankLayer : public Layer, private BiasMixin {
 public:
  LowRankLayer(std::size_t in, std::size_t out, std::size_t rank, Rng& rng);

  std::size_t inDim() const override { return in_; }
  std::size_t outDim() const override { return out_; }
  const char* name() const override { return "LowRankLayer"; }
  void Forward(const Matrix& x, Matrix& y, bool train) override;
  void Backward(const Matrix& dy, Matrix* dx) override;
  std::vector<ParamRef> parameters() override;

 private:
  std::size_t in_, out_, rank_;
  Matrix u_, u_grad_;  // in x rank
  Matrix v_, v_grad_;  // rank x out
  Matrix x_cache_, t_cache_;
};

}  // namespace repro::nn
