#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "linalg/spmm.h"
#include "util/parallel.h"

namespace repro {
namespace {

TEST(Matrix, BasicAccessors) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  m.at(2, 3) = 5.0f;
  EXPECT_FLOAT_EQ(m(2, 3), 5.0f);
}

TEST(Matrix, IdentityAndTranspose) {
  Matrix i = Matrix::Identity(4);
  EXPECT_TRUE(AllClose(i, i.Transposed()));
  Rng rng(1);
  Matrix a = Matrix::RandomNormal(3, 5, rng);
  Matrix att = a.Transposed().Transposed();
  EXPECT_DOUBLE_EQ(MaxAbsDiff(a, att), 0.0);
}

TEST(Matrix, ArithmeticOps) {
  Matrix a(2, 2, 1.0f), b(2, 2, 2.0f);
  a += b;
  EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
  a -= b;
  EXPECT_FLOAT_EQ(a(1, 1), 1.0f);
  a *= 4.0f;
  EXPECT_FLOAT_EQ(a(0, 1), 4.0f);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0f;
  m(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(Matrix, AllCloseTolerances) {
  Matrix a(1, 1, 1.0f), b(1, 1, 1.0001f);
  EXPECT_TRUE(AllClose(a, b, 1e-3, 1e-3));
  EXPECT_FALSE(AllClose(a, Matrix(1, 1, 2.0f), 1e-4, 1e-4));
}

// The three GEMM layouts as the scalar loop nests they were before the
// register-tiled core: each wrapper must reproduce its loop nest bitwise.
void RefBlocked(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  constexpr std::size_t kBlock = 64;
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (!accumulate) c.Zero();
  for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
    const std::size_t i1 = std::min(i0 + kBlock, m);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlock) {
      const std::size_t p1 = std::min(p0 + kBlock, k);
      for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
        const std::size_t j1 = std::min(j0 + kBlock, n);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t p = p0; p < p1; ++p) {
            const float av = a(i, p);
            for (std::size_t j = j0; j < j1; ++j) c(i, j) += av * b(p, j);
          }
        }
      }
    }
  }
}

void RefTransA(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (!accumulate) c.Zero();
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t i = 0; i < m; ++i) {
      const float av = a(p, i);
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) c(i, j) += av * b(p, j);
    }
  }
}

void RefTransB(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a(i, p) * b(j, p);
      c(i, j) = accumulate ? c(i, j) + acc : acc;
    }
  }
}

using GemmFn = void (*)(const Matrix&, const Matrix&, Matrix&, bool);

// Runs `fn` into copies of c0, overwriting and accumulating, at 1 and 4 host
// threads; every result must be bitwise the reference's.
void ExpectBitwise(GemmFn fn, GemmFn ref, const Matrix& a, const Matrix& b,
                   const Matrix& c0) {
  for (const bool accumulate : {false, true}) {
    Matrix want = c0;
    ref(a, b, want, accumulate);
    for (const std::size_t threads : {1, 4}) {
      SetParallelWorkers(threads);
      Matrix got = c0;
      fn(a, b, got, accumulate);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
                0)
          << "accumulate=" << accumulate << " threads=" << threads
          << " max diff " << MaxAbsDiff(got, want);
    }
  }
  SetParallelWorkers(0);
}

// Random normal entries with every `every`-th one exactly zero.
Matrix WithZeros(std::size_t rows, std::size_t cols, std::size_t every,
                 Rng& rng) {
  Matrix m = Matrix::RandomNormal(rows, cols, rng);
  for (std::size_t i = 0; i < m.size(); i += every) m.data()[i] = 0.0f;
  return m;
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, BlockedMatchesReference) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  const Matrix a = WithZeros(m, k, 5, rng);
  const Matrix b = WithZeros(k, n, 7, rng);
  ExpectBitwise(GemmBlocked, RefBlocked, a, b, Matrix::RandomNormal(m, n, rng));
}

TEST_P(GemmSizes, TransAMatchesReference) {
  auto [m, k, n] = GetParam();
  Rng rng(7);
  const Matrix at = WithZeros(k, m, 5, rng);  // A^T stored as (k x m)
  const Matrix b = WithZeros(k, n, 7, rng);
  ExpectBitwise(GemmTransA, RefTransA, at, b, Matrix::RandomNormal(m, n, rng));
}

TEST_P(GemmSizes, TransBMatchesReference) {
  auto [m, k, n] = GetParam();
  Rng rng(8);
  const Matrix a = WithZeros(m, k, 5, rng);
  const Matrix bt = WithZeros(n, k, 7, rng);  // B^T stored as (n x k)
  ExpectBitwise(GemmTransB, RefTransB, a, bt, Matrix::RandomNormal(m, n, rng));
}

// The ragged shapes hit every edge tile: partial row tiles, partial column
// panels and both at once, down to 1 x 1, plus the SHL classifier shape.
// The core reads B in place when its rows are contiguous and n is a
// multiple of 4 up to 64, and packs it otherwise; the last four shapes sit
// on both sides of that bound. TransB's B rows are contiguous only at
// k = 1, so {5, 1, 4} is its in-place case.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{16, 16, 16}, std::tuple{33, 17, 65},
                      std::tuple{64, 128, 32}, std::tuple{100, 1, 100},
                      std::tuple{1, 200, 1}, std::tuple{70, 70, 70},
                      std::tuple{5, 3, 9}, std::tuple{4, 50, 8},
                      std::tuple{65, 7, 33}, std::tuple{50, 1024, 10},
                      std::tuple{9, 33, 64}, std::tuple{9, 33, 68},
                      std::tuple{6, 20, 62}, std::tuple{5, 1, 4}));

// The core's vector widths, narrowest first. GemmIsa() is the widest this
// CPU runs; RunAtGemmIsa runs any other it supports.
constexpr const char* kGemmIsas[] = {"sse2", "avx2", "avx512"};

TEST(GemmIsa, NamesTheWidestWidthThisCpuRuns) {
  const std::string widest = GemmIsa();
  bool past_widest = false;
  for (const char* isa : kGemmIsas) {
    const bool runs = RunAtGemmIsa(isa, [] {});
    EXPECT_EQ(runs, !past_widest) << isa;
    past_widest = past_widest || isa == widest;
  }
  EXPECT_TRUE(past_widest) << widest;
  EXPECT_FALSE(RunAtGemmIsa("avx1024", [] { FAIL(); }));
}

// Every layout at every width this CPU runs, overwriting and accumulating,
// must give the bits of the 4-lane width and of the reference loop nest.
// n runs over every width from 1 to 68, so each lane boundary is met both
// read in place (Blocked, TransA and Serial with n a multiple of 4 up to
// 64) and packed (TransB, whose B rows are strided, and every other n);
// k = 1 also reads TransB in place. m = 7 and 70 leave ragged row tiles,
// and 70 spans two row blocks.
TEST(GemmWidths, EveryWidthMatchesTheFourLaneWidthAndTheReference) {
  using Run = std::function<void(const Matrix&, const Matrix&, Matrix&, bool)>;
  const auto serial = [](const Matrix& a, const Matrix& b, Matrix& c,
                         bool accumulate) {
    GemmSerial(a.rows(), a.cols(), b.cols(), a.data(), b.data(), c.data(),
               accumulate);
  };
  for (const std::size_t m : {7, 70}) {
    for (const std::size_t k : {1, 19}) {
      for (std::size_t n = 1; n <= 68; ++n) {
        Rng rng(m * 10000 + k * 100 + n);
        const Matrix a = Matrix::RandomNormal(m, k, rng);
        const Matrix b = Matrix::RandomNormal(k, n, rng);
        const Matrix at = a.Transposed(), bt = b.Transposed();
        const Matrix c0 = Matrix::RandomNormal(m, n, rng);
        const struct {
          const char* name;
          Run run, ref;
          const Matrix &a, &b;
        } layouts[] = {{"blocked", GemmBlocked, RefBlocked, a, b},
                       {"transa", GemmTransA, RefTransA, at, b},
                       {"transb", GemmTransB, RefTransB, a, bt},
                       {"serial", serial, RefBlocked, a, b}};
        for (const auto& l : layouts) {
          for (const bool accumulate : {false, true}) {
            Matrix want = c0;
            l.ref(l.a, l.b, want, accumulate);
            Matrix four_lane = c0;
            ASSERT_TRUE(RunAtGemmIsa(
                "sse2", [&] { l.run(l.a, l.b, four_lane, accumulate); }));
            for (const char* isa : kGemmIsas) {
              Matrix got = c0;
              if (!RunAtGemmIsa(isa,
                                [&] { l.run(l.a, l.b, got, accumulate); })) {
                continue;
              }
              const std::size_t bytes = want.size() * sizeof(float);
              EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
                  << isa << " " << l.name << " m=" << m << " k=" << k
                  << " n=" << n << " accumulate=" << accumulate
                  << " max diff " << MaxAbsDiff(got, want);
              EXPECT_EQ(std::memcmp(got.data(), four_lane.data(), bytes), 0)
                  << isa << " vs sse2 " << l.name << " m=" << m
                  << " k=" << k << " n=" << n;
            }
          }
        }
      }
    }
  }
}

// a * b + c with the product rounded first must not become one fused
// multiply-add at any width, whatever ISA the kernel is compiled for. With
// a = b = 1 + 2^-12 the exact product 1 + 2^-11 + 2^-24 rounds to
// 1 + 2^-11, so with c = -(1 + 2^-11) the sum is 0, where fma gives 2^-24.
// n = 1, 4, 8, 16 and 48 put the accumulate in every tile width.
TEST(GemmWidths, NoFusedMultiplyAdd) {
  const float a = 1.0f + std::ldexp(1.0f, -12);
  const float c = -(1.0f + std::ldexp(1.0f, -11));
  ASSERT_NE(std::fma(a, a, c), 0.0f);
  volatile float product = a * a;  // rounded on its own
  ASSERT_EQ(product + c, 0.0f);
  for (const char* isa : kGemmIsas) {
    for (const std::size_t n : {1, 4, 8, 16, 48}) {
      const std::vector<float> b(n, a);
      std::vector<float> out(n, c);
      if (!RunAtGemmIsa(isa, [&] {
            GemmSerial(1, 1, n, &a, b.data(), out.data(), /*accumulate=*/true);
          })) {
        continue;
      }
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(out[j], 0.0f) << isa << " n=" << n << " j=" << j;
      }
    }
  }
}

TEST(Gemm, AccumulateMode) {
  Rng rng(5);
  Matrix a = Matrix::RandomNormal(4, 4, rng);
  Matrix b = Matrix::RandomNormal(4, 4, rng);
  Matrix c(4, 4, 1.0f);
  Matrix ref(4, 4);
  GemmNaive(a, b, ref);
  GemmBlocked(a, b, c, /*accumulate=*/true);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i] + 1.0f, 1e-4f);
  }
}

TEST(Gemm, IdentityIsNoop) {
  Rng rng(6);
  Matrix a = Matrix::RandomNormal(8, 8, rng);
  Matrix c = MatMul(a, Matrix::Identity(8));
  EXPECT_TRUE(AllClose(c, a));
}

TEST(Gemm, Gemv) {
  Rng rng(9);
  Matrix a = Matrix::RandomNormal(5, 3, rng);
  std::vector<float> x{1.0f, 2.0f, 3.0f}, y(5);
  Gemv(a, x, y);
  Matrix xm(3, 1);
  for (int i = 0; i < 3; ++i) xm(i, 0) = x[i];
  Matrix ym = MatMul(a, xm);
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(y[i], ym(i, 0), 1e-5f);
}

TEST(Gemm, FlopsCount) {
  EXPECT_DOUBLE_EQ(GemmFlops(2, 3, 4), 48.0);
}

TEST(Sparse, DenseRoundTripCsr) {
  Rng rng(10);
  Matrix d = Matrix::RandomNormal(13, 9, rng);
  // zero half the entries
  for (std::size_t i = 0; i < d.size(); i += 2) d.data()[i] = 0.0f;
  Csr csr = DenseToCsr(d);
  EXPECT_TRUE(AllClose(CsrToDense(csr), d));
}

TEST(Sparse, DenseRoundTripCoo) {
  Rng rng(11);
  Matrix d = Matrix::RandomNormal(7, 11, rng);
  for (std::size_t i = 0; i < d.size(); i += 3) d.data()[i] = 0.0f;
  Coo coo = DenseToCoo(d);
  EXPECT_TRUE(AllClose(CooToDense(coo), d));
}

TEST(Sparse, FormatConversions) {
  Rng rng(12);
  Csr csr = RandomCsr(20, 30, 0.1, rng);
  Coo coo = CsrToCoo(csr);
  Csr back = CooToCsr(coo);
  EXPECT_EQ(back.nnz(), csr.nnz());
  EXPECT_TRUE(AllClose(CsrToDense(back), CsrToDense(csr)));
}

class SparseDensity : public ::testing::TestWithParam<double> {};

TEST_P(SparseDensity, RandomCsrHitsExactNnz) {
  Rng rng(13);
  const double density = GetParam();
  Csr csr = RandomCsr(64, 64, density, rng);
  EXPECT_EQ(csr.nnz(),
            static_cast<std::size_t>(std::llround(density * 64 * 64)));
  // row_ptr is consistent
  EXPECT_EQ(csr.row_ptr.size(), 65u);
  EXPECT_EQ(csr.row_ptr.back(), csr.nnz());
  // column indices sorted and unique per row
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::uint32_t i = csr.row_ptr[r] + 1; i < csr.row_ptr[r + 1]; ++i) {
      EXPECT_LT(csr.col_idx[i - 1], csr.col_idx[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, SparseDensity,
                         ::testing::Values(0.01, 0.05, 0.1, 0.5, 0.9, 1.0));

TEST(Spmm, CsrMatchesDense) {
  Rng rng(14);
  Csr s = RandomCsr(17, 23, 0.2, rng);
  Matrix b = Matrix::RandomNormal(23, 5, rng);
  Matrix ref = MatMul(CsrToDense(s), b);
  EXPECT_TRUE(AllClose(SpmmCsr(s, b), ref, 1e-4, 1e-4));
}

TEST(Spmm, CooMatchesDense) {
  Rng rng(15);
  Csr s = RandomCsr(11, 19, 0.3, rng);
  Coo coo = CsrToCoo(s);
  Matrix b = Matrix::RandomNormal(19, 7, rng);
  Matrix ref = MatMul(CsrToDense(s), b);
  EXPECT_TRUE(AllClose(SpmmCoo(coo, b), ref, 1e-4, 1e-4));
}

TEST(Spmm, EmptyMatrix) {
  Rng rng(16);
  Csr s = RandomCsr(4, 4, 0.0, rng);
  EXPECT_EQ(s.nnz(), 0u);
  Matrix b = Matrix::RandomNormal(4, 2, rng);
  Matrix c = SpmmCsr(s, b);
  EXPECT_DOUBLE_EQ(c.FrobeniusNorm(), 0.0);
}

TEST(Spmm, AccumulateMode) {
  Rng rng(17);
  Csr s = RandomCsr(5, 5, 0.4, rng);
  Matrix b = Matrix::RandomNormal(5, 3, rng);
  Matrix c(5, 3, 2.0f);
  Matrix ref = SpmmCsr(s, b);
  SpmmCsr(s, b, c, /*accumulate=*/true);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i] + 2.0f, 1e-4f);
  }
}

TEST(Sparse, BytesAccounting) {
  Rng rng(18);
  Csr csr = RandomCsr(10, 10, 0.5, rng);
  EXPECT_EQ(csr.bytes(), csr.nnz() * 8 + 11 * 4);
  Coo coo = CsrToCoo(csr);
  EXPECT_EQ(coo.bytes(), coo.nnz() * 12);
}

TEST(Sparse, DensityComputation) {
  Rng rng(19);
  Csr csr = RandomCsr(100, 100, 0.25, rng);
  EXPECT_NEAR(csr.density(), 0.25, 1e-9);
}

}  // namespace
}  // namespace repro
