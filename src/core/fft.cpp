#include "core/fft.h"

#include <cmath>

#include "util/bitops.h"
#include "util/error.h"

namespace repro::core {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  REPRO_REQUIRE(IsPow2(n), "FFT needs power-of-two length, got %zu", n);
  const unsigned bits = Log2(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t j = BitReverse(static_cast<std::uint32_t>(i), bits);
    if (i < j) swaps_.emplace_back(static_cast<std::uint32_t>(i), j);
  }
  for (const bool inverse : {false, true}) {
    std::vector<double>& tw = twiddles_[inverse];
    tw.reserve(2 * (n - 1));
    const double sign = inverse ? 1.0 : -1.0;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double angle = sign * 2.0 * M_PI / static_cast<double>(len);
      const Cpx wlen(std::cos(angle), std::sin(angle));
      Cpx w(1.0, 0.0);
      for (std::size_t i = 0; i < len / 2; ++i) {
        tw.push_back(w.real());
        tw.push_back(w.imag());
        w *= wlen;
      }
    }
  }
}

void FftPlan::Run(std::span<Cpx> v, bool inverse) const {
  REPRO_REQUIRE(v.size() == n_, "FFT plan of length %zu run on %zu values",
                n_, v.size());
  for (const auto& [i, j] : swaps_) std::swap(v[i], v[j]);
  // std::complex<double> is an array of {re, im} ([complex.numbers]). The
  // butterfly t = w * bot, top = u + t, bot = u - t is spelled out in the
  // order GCC evaluates the std::complex expressions, without their NaN
  // recovery call: the bits differ only where both parts of a product are
  // NaN, which takes an infinite, NaN or overflowing operand.
  double* d = reinterpret_cast<double*>(v.data());
  const double* tw = twiddles_[inverse].data();
  for (std::size_t half = 1; half < n_; half <<= 1) {
    const double* w = tw + 2 * (half - 1);
    for (std::size_t base = 0; base < n_; base += 2 * half) {
      double* top = d + 2 * base;
      double* bot = top + 2 * half;
      for (std::size_t i = 0; i < half; ++i) {
        const double wr = w[2 * i], wi = w[2 * i + 1];
        const double br = bot[2 * i], bi = bot[2 * i + 1];
        const double tr = wr * br - wi * bi;
        const double ti = wr * bi + wi * br;
        const double ur = top[2 * i], ui = top[2 * i + 1];
        top[2 * i] = ur + tr;
        top[2 * i + 1] = ui + ti;
        bot[2 * i] = ur - tr;
        bot[2 * i + 1] = ui - ti;
      }
    }
  }
  if (inverse) {
    const double scale = static_cast<double>(n_);
    for (std::size_t i = 0; i < 2 * n_; ++i) d[i] /= scale;
  }
}

std::vector<Cpx> DftNaive(std::span<const Cpx> v, bool inverse) {
  const std::size_t n = v.size();
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Cpx> out(n, Cpx(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = sign * 2.0 * M_PI * static_cast<double>(k * j) /
                           static_cast<double>(n);
      out[k] += v[j] * Cpx(std::cos(angle), std::sin(angle));
    }
  }
  if (inverse) {
    for (auto& x : out) x /= static_cast<double>(n);
  }
  return out;
}

ComplexButterfly ComplexButterfly::Dft(std::size_t n) {
  REPRO_REQUIRE(IsPow2(n), "DFT butterfly needs power-of-two size");
  ComplexButterfly b;
  b.n_ = n;
  const unsigned bits = Log2(n);
  b.perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.perm_[i] = BitReverse(static_cast<std::uint32_t>(i), bits);
  }
  // Stage with half-size `stride` merges DFTs of length `stride` into
  // length 2*stride: D1 = D3 = I, D2 = Omega, D4 = -Omega (paper eq. 1).
  for (std::size_t stride = 1; stride < n; stride <<= 1) {
    Factor f;
    f.stride = stride;
    const std::size_t pairs = n / 2;
    f.a.resize(pairs);
    f.b.resize(pairs);
    f.c.resize(pairs);
    f.d.resize(pairs);
    std::size_t p = 0;
    for (std::size_t base = 0; base < n; base += 2 * stride) {
      for (std::size_t i = 0; i < stride; ++i, ++p) {
        const double angle = -2.0 * M_PI * static_cast<double>(i) /
                             static_cast<double>(2 * stride);
        const Cpx omega(std::cos(angle), std::sin(angle));
        f.a[p] = Cpx(1.0, 0.0);
        f.b[p] = omega;
        f.c[p] = Cpx(1.0, 0.0);
        f.d[p] = -omega;
      }
    }
    b.factors_.push_back(std::move(f));
  }
  return b;
}

std::vector<Cpx> ComplexButterfly::Apply(std::span<const Cpx> x) const {
  REPRO_REQUIRE(x.size() == n_, "ComplexButterfly apply size mismatch");
  std::vector<Cpx> v(n_);
  for (std::size_t i = 0; i < n_; ++i) v[i] = x[perm_[i]];
  for (const Factor& f : factors_) {
    std::size_t p = 0;
    for (std::size_t base = 0; base < n_; base += 2 * f.stride) {
      for (std::size_t i = 0; i < f.stride; ++i, ++p) {
        const Cpx top = v[base + i];
        const Cpx bot = v[base + f.stride + i];
        v[base + i] = f.a[p] * top + f.b[p] * bot;
        v[base + f.stride + i] = f.c[p] * top + f.d[p] * bot;
      }
    }
  }
  return v;
}

bool CircularUsesFft(std::size_t n) { return IsPow2(n) && n >= 32; }

void RealSpectrum(const FftPlan& plan, std::span<const float> x,
                  std::span<Cpx> spec) {
  REPRO_REQUIRE(x.size() == plan.n() && spec.size() == plan.n(),
                "spectrum size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) spec[i] = Cpx(x[i], 0.0);
  plan.Run(spec);
}

namespace {

// out = Re(IDFT(work)), narrowed to float.
void RealInverse(const FftPlan& plan, std::span<Cpx> work,
                 std::span<float> out) {
  REPRO_REQUIRE(out.size() == plan.n(), "inverse size mismatch");
  plan.Run(work, /*inverse=*/true);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(work[i].real());
  }
}

}  // namespace

void ConvolveSpectra(const FftPlan& plan, std::span<const Cpx> a,
                     std::span<const Cpx> b, std::span<Cpx> work,
                     std::span<float> out) {
  REPRO_REQUIRE(a.size() == plan.n() && b.size() == plan.n() &&
                    work.size() == plan.n(),
                "convolve spectra size mismatch");
  for (std::size_t i = 0; i < work.size(); ++i) work[i] = a[i] * b[i];
  RealInverse(plan, work, out);
}

void CorrelateSpectra(const FftPlan& plan, std::span<const Cpx> a,
                      std::span<const Cpx> b, std::span<Cpx> work,
                      std::span<float> out) {
  REPRO_REQUIRE(a.size() == plan.n() && b.size() == plan.n() &&
                    work.size() == plan.n(),
                "correlate spectra size mismatch");
  for (std::size_t i = 0; i < work.size(); ++i) {
    work[i] = std::conj(a[i]) * b[i];
  }
  RealInverse(plan, work, out);
}

void CircularConvolve(std::span<const float> c, std::span<const float> x,
                      std::span<float> out) {
  const std::size_t n = c.size();
  REPRO_REQUIRE(x.size() == n && out.size() == n,
                "circular convolve size mismatch");
  if (CircularUsesFft(n)) {
    const FftPlan plan(n);
    std::vector<Cpx> fc(n), fx(n);
    RealSpectrum(plan, c, fc);
    RealSpectrum(plan, x, fx);
    ConvolveSpectra(plan, fc, fx, fx, out);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += static_cast<double>(c[j]) * x[(i + n - j) % n];
    }
    out[i] = static_cast<float>(acc);
  }
}

void CircularCorrelate(std::span<const float> x, std::span<const float> y,
                       std::span<float> out) {
  const std::size_t n = x.size();
  REPRO_REQUIRE(y.size() == n && out.size() == n,
                "circular correlate size mismatch");
  if (CircularUsesFft(n)) {
    const FftPlan plan(n);
    std::vector<Cpx> fx(n), fy(n);
    RealSpectrum(plan, x, fx);
    RealSpectrum(plan, y, fy);
    CorrelateSpectra(plan, fx, fy, fy, out);
    return;
  }
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += static_cast<double>(x[i]) * y[(i + j) % n];
    }
    out[j] = static_cast<float>(acc);
  }
}

}  // namespace repro::core
