#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/fft.h"
#include "core/fwht.h"
#include "linalg/gemm.h"
#include "util/bitops.h"
#include "util/rng.h"

namespace repro::core {
namespace {

class FwhtSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FwhtSizes, MatchesDenseHadamard) {
  const std::size_t n = GetParam();
  Rng rng(n);
  Matrix x = Matrix::RandomNormal(3, n, rng);
  Matrix fast = x;
  FwhtRows(fast);
  Matrix ref = MatMul(x, HadamardDense(n).Transposed());
  EXPECT_TRUE(AllClose(fast, ref, 1e-3, 1e-3)) << "n=" << n;
}

TEST_P(FwhtSizes, OrthonormalInvolution) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  Matrix x = Matrix::RandomNormal(2, n, rng);
  Matrix y = x;
  FwhtRows(y);
  FwhtRows(y);  // normalised H is its own inverse
  EXPECT_TRUE(AllClose(y, x, 1e-3, 1e-3));
}

INSTANTIATE_TEST_SUITE_P(Pow2, FwhtSizes,
                         ::testing::Values(2, 4, 8, 16, 64, 256, 1024));

TEST(Fwht, PreservesNorm) {
  Rng rng(42);
  Matrix x = Matrix::RandomNormal(1, 128, rng);
  const double before = x.FrobeniusNorm();
  FwhtRows(x);
  EXPECT_NEAR(x.FrobeniusNorm(), before, 1e-3);
}

TEST(Fwht, RejectsNonPow2) {
  std::vector<float> v(12);
  EXPECT_DEATH(Fwht(v), "power-of-two");
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<Cpx> v(n);
  for (auto& c : v) c = Cpx(rng.Normal(), rng.Normal());
  auto ref = DftNaive(v);
  std::vector<Cpx> fast = v;
  FftPlan(n).Run(fast);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fast[i].real(), ref[i].real(), 1e-8 * n);
    EXPECT_NEAR(fast[i].imag(), ref[i].imag(), 1e-8 * n);
  }
}

TEST_P(FftSizes, InverseRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n + 7);
  std::vector<Cpx> v(n);
  for (auto& c : v) c = Cpx(rng.Normal(), rng.Normal());
  auto orig = v;
  const FftPlan plan(n);
  plan.Run(v);
  plan.Run(v, /*inverse=*/true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(v[i].real(), orig[i].real(), 1e-9 * n);
    EXPECT_NEAR(v[i].imag(), orig[i].imag(), 1e-9 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(Pow2, FftSizes,
                         ::testing::Values(2, 4, 8, 32, 128, 512));

// Fft as the loop it was before FftPlan, which advances each twiddle by
// w *= wlen inside every butterfly group and multiplies in std::complex:
// the bitwise oracle for the plan.
void RecurrenceFft(std::span<Cpx> v, bool inverse) {
  const std::size_t n = v.size();
  const unsigned bits = Log2(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = BitReverse(static_cast<std::uint32_t>(i), bits);
    if (i < j) std::swap(v[i], v[j]);
  }
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * M_PI / static_cast<double>(len);
    const Cpx wlen(std::cos(angle), std::sin(angle));
    for (std::size_t base = 0; base < n; base += len) {
      Cpx w(1.0, 0.0);
      for (std::size_t i = 0; i < len / 2; ++i) {
        const Cpx u = v[base + i];
        const Cpx t = w * v[base + i + len / 2];
        v[base + i] = u + t;
        v[base + i + len / 2] = u - t;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& x : v) x /= static_cast<double>(n);
  }
}

bool SameBits(const std::vector<Cpx>& a, const std::vector<Cpx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Cpx)) == 0;
}

TEST(FftPlan, MatchesTheRecurrenceLoopBitwise) {
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    const FftPlan plan(n);
    EXPECT_EQ(plan.n(), n);
    Rng rng(n + 11);
    std::vector<Cpx> x(n);
    for (auto& c : x) c = Cpx(rng.Normal(), rng.Normal());
    x[n / 2] = Cpx(0.0, -0.0);  // an exact zero among the inputs
    for (const bool inverse : {false, true}) {
      std::vector<Cpx> want = x;
      RecurrenceFft(want, inverse);
      std::vector<Cpx> got = x;
      plan.Run(got, inverse);
      EXPECT_TRUE(SameBits(got, want)) << "n=" << n << " inverse=" << inverse;
      // A plan runs any number of signals.
      got = x;
      plan.Run(got, inverse);
      EXPECT_TRUE(SameBits(got, want)) << "rerun n=" << n;
    }
  }
}

TEST(FftPlan, RejectsWrongLengths) {
  EXPECT_DEATH(FftPlan(12), "power-of-two");
  const FftPlan plan(8);
  std::vector<Cpx> v(4);
  EXPECT_DEATH(plan.Run(v), "length 8 run on 4");
}

// The paper's equation (1): the DFT decomposes into log N butterfly factors
// applied after the even/odd (bit-reversal) permutation. This validates the
// "FFT is a special case of butterfly factorization" claim exactly.
class DftButterflySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DftButterflySizes, ComplexButterflyEqualsDft) {
  const std::size_t n = GetParam();
  auto bf = ComplexButterfly::Dft(n);
  EXPECT_EQ(bf.numFactors(), static_cast<std::size_t>(std::log2(n)));
  Rng rng(n + 3);
  std::vector<Cpx> v(n);
  for (auto& c : v) c = Cpx(rng.Normal(), rng.Normal());
  auto via_butterfly = bf.Apply(v);
  auto ref = DftNaive(v);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(via_butterfly[i].real(), ref[i].real(), 1e-8 * n) << "i=" << i;
    EXPECT_NEAR(via_butterfly[i].imag(), ref[i].imag(), 1e-8 * n) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Pow2, DftButterflySizes,
                         ::testing::Values(2, 4, 8, 16, 64, 128));

TEST(CircularConvolve, MatchesCirculantMatrix) {
  const std::size_t n = 64;
  Rng rng(9);
  std::vector<float> c(n), x(n), out(n);
  rng.FillNormal(c.data(), n, 1.0f);
  rng.FillNormal(x.data(), n, 1.0f);
  CircularConvolve(c, x, out);
  // Reference: dense circulant matrix C[i][j] = c[(i-j) mod n].
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += static_cast<double>(c[(i + n - j) % n]) * x[j];
    }
    EXPECT_NEAR(out[i], acc, 1e-3) << "i=" << i;
  }
}

TEST(CircularConvolve, SmallNonPow2FallsBackToDirect) {
  const std::size_t n = 6;
  std::vector<float> c(n, 0.0f), x{1, 2, 3, 4, 5, 6}, out(n);
  c[1] = 1.0f;  // shift by one
  CircularConvolve(c, x, out);
  const std::vector<float> want{6, 1, 2, 3, 4, 5};
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(out[i], want[i], 1e-5);
}

TEST(CircularCorrelate, FftPathMatchesDirect) {
  const std::size_t n = 64;
  Rng rng(10);
  std::vector<float> x(n), y(n), fast(n), direct(n);
  rng.FillNormal(x.data(), n, 1.0f);
  rng.FillNormal(y.data(), n, 1.0f);
  CircularCorrelate(x, y, fast);  // n = 64 takes the FFT path
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += static_cast<double>(x[i]) * y[(i + j) % n];
    }
    direct[j] = static_cast<float>(acc);
  }
  for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(fast[j], direct[j], 1e-3);
}

TEST(CircularOps, ConvolveCorrelateAdjoint) {
  // <c * x, y> == <x, corr(c, y)>: the adjoint identity the circulant layer
  // backward relies on.
  const std::size_t n = 32;
  Rng rng(11);
  std::vector<float> c(n), x(n), y(n), cx(n), corr(n);
  rng.FillNormal(c.data(), n, 1.0f);
  rng.FillNormal(x.data(), n, 1.0f);
  rng.FillNormal(y.data(), n, 1.0f);
  CircularConvolve(c, x, cx);
  CircularCorrelate(c, y, corr);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    lhs += static_cast<double>(cx[i]) * y[i];
    rhs += static_cast<double>(x[i]) * corr[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

}  // namespace
}  // namespace repro::core
