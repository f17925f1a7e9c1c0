// Radix-2 complex FFT plus the explicit FFT-as-butterfly construction of the
// paper's equation (1): F_N is the product of log N complex butterfly
// factors applied after bit-reversal. Also provides the circular convolution
// used by the Circulant baseline layer.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace repro::core {

using Cpx = std::complex<double>;

// Iterative radix-2 Cooley-Tukey FFT (decimation in time) of one
// power-of-two length n, with what depends only on n computed once: the
// bit-reversal swaps and each stage's twiddles Omega (the diagonals of
// ComplexButterfly::Dft's factors). Each stage's twiddles come from the
// recurrence w_0 = 1, w_{i+1} = w_i * wlen with wlen = exp(-+2 pi i / len),
// the values the classic loop forms at every butterfly, and Run applies
// the butterflies in real arithmetic with std::complex's operation order,
// so a plan gives bitwise that loop's result.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t n() const { return n_; }
  // In place: v = DFT(v), or the inverse DFT (scaled by 1/n).
  void Run(std::span<Cpx> v, bool inverse = false) const;

 private:
  std::size_t n_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;
  // Per direction (forward, inverse), re/im interleaved: stage len's len/2
  // twiddles start at complex index len/2 - 1.
  std::vector<double> twiddles_[2];
};

// O(n^2) reference DFT for validation.
std::vector<Cpx> DftNaive(std::span<const Cpx> v, bool inverse = false);

// A complex butterfly matrix: log N factors of 2x2 complex blocks plus a
// fixed input permutation -- exactly the structure of paper eq. (1)/(2).
// Used to demonstrate that the DFT is a special case of the butterfly
// factorization (D1 = D3 = I, D2 = Omega, D4 = -Omega).
class ComplexButterfly {
 public:
  // Builds the factors whose product (after bit-reversal) is the DFT matrix.
  static ComplexButterfly Dft(std::size_t n);

  std::size_t n() const { return n_; }
  std::size_t numFactors() const { return factors_.size(); }

  // y = B P x (applies the permutation, then each factor).
  std::vector<Cpx> Apply(std::span<const Cpx> x) const;

 private:
  struct Factor {
    std::size_t stride = 1;
    // Per pair p: y_top = a[p]*x_top + b[p]*x_bot; y_bot = c[p]*x_top + d[p]*x_bot
    std::vector<Cpx> a, b, c, d;
  };
  std::size_t n_ = 0;
  std::vector<std::uint32_t> perm_;
  std::vector<Factor> factors_;
};

// Circular convolution of real signals via FFT: out[i] = sum_j c[j] x[(i-j) mod n].
// This is multiplication by the circulant matrix generated by c.
void CircularConvolve(std::span<const float> c, std::span<const float> x,
                      std::span<float> out);

// Circular cross-correlation: out[j] = sum_i x[i] y[(i+j) mod n]; the
// gradient of circular convolution with respect to the kernel.
void CircularCorrelate(std::span<const float> x, std::span<const float> y,
                       std::span<float> out);

// The two functions above take the FFT path for these lengths (powers of
// two from 32) and sum directly in double otherwise. Their FFT path is the
// three calls below, which a caller that reuses a plan or a spectrum (the
// circulant layer) calls itself for the same bits. Every span has plan.n()
// values.
bool CircularUsesFft(std::size_t n);

// spec = DFT(x), x widened to complex.
void RealSpectrum(const FftPlan& plan, std::span<const float> x,
                  std::span<Cpx> spec);

// out = Re(IDFT(a .* b)): the circular convolution of the real signals
// whose spectra are a and b. work is overwritten, and may be b.
void ConvolveSpectra(const FftPlan& plan, std::span<const Cpx> a,
                     std::span<const Cpx> b, std::span<Cpx> work,
                     std::span<float> out);

// out = Re(IDFT(conj(a) .* b)): their circular correlation.
void CorrelateSpectra(const FftPlan& plan, std::span<const Cpx> a,
                      std::span<const Cpx> b, std::span<Cpx> work,
                      std::span<float> out);

}  // namespace repro::core
