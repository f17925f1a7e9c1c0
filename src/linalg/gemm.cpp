#include "linalg/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/bitops.h"
#include "util/parallel.h"

namespace repro {
namespace {

// Rows of C per ParallelFor shard.
constexpr std::size_t kBlock = 64;

// The core's register tile: kMr rows by kNr columns of C, each row held in
// kNr / 4 four-float vectors across the whole k loop. 4 x 12 keeps the 12
// accumulators, the B vectors and one broadcast A value in the 16 SSE
// registers of baseline x86-64.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 12;
constexpr std::size_t kLanes = 4;
constexpr std::size_t kVecs = kNr / kLanes;

typedef float Vec __attribute__((vector_size(16)));

Vec Load(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void Store(float* p, Vec v) { std::memcpy(p, &v, sizeof v); }

// Where each C element's running sum starts, and how it is written back:
//   kZero      from 0, C = sum      (every layout without accumulate)
//   kFromC     from C, C = sum      (GemmBlocked and GemmTransA accumulate)
//   kAddAfter  from 0, C = C + sum  (GemmTransB accumulate)
enum class Start { kZero, kFromC, kAddAfter };

// C (m x n, row-major) from A(i, p) = a[i * a_row + p * a_col] and
// B(p, j) = b[p * b_row + j * b_col]; the strides express each layout.
struct Operands {
  const float* a;
  std::size_t a_row, a_col;
  const float* b;
  std::size_t b_row, b_col;
  float* c;
  std::size_t m, k, n;
  Start start;
};

// One kMr x kNr tile of C (leading dimension ldc). Every element adds its k
// products one at a time in p order, so the result is bitwise that of a
// scalar loop over p.
void Tile(const float* const* arow, std::size_t a_col, const float* panel,
          std::size_t k, float* c, std::size_t ldc, Start start) {
  Vec acc[kMr][kVecs];
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      acc[i][v] = start == Start::kFromC ? Load(c + i * ldc + v * kLanes)
                                         : Vec{};
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    Vec bv[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      bv[v] = Load(panel + p * kNr + v * kLanes);
    }
    for (std::size_t i = 0; i < kMr; ++i) {
      const float av = arow[i][p * a_col];
      for (std::size_t v = 0; v < kVecs; ++v) acc[i][v] += av * bv[v];
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      float* dst = c + i * ldc + v * kLanes;
      Store(dst, start == Start::kAddAfter ? Load(dst) + acc[i][v] : acc[i][v]);
    }
  }
}

// Rows [r0, r1) of C: B is packed once per kNr-wide column panel (k x kNr,
// zero-padded past n) and every row tile of the range reuses it.
void GemmRows(const Operands& op, std::size_t r0, std::size_t r1) {
  std::vector<float> panel(op.k * kNr);
  for (std::size_t j0 = 0; j0 < op.n; j0 += kNr) {
    const std::size_t cols = std::min(kNr, op.n - j0);
    for (std::size_t p = 0; p < op.k; ++p) {
      for (std::size_t j = 0; j < kNr; ++j) {
        panel[p * kNr + j] =
            j < cols ? op.b[p * op.b_row + (j0 + j) * op.b_col] : 0.0f;
      }
    }
    for (std::size_t i0 = r0; i0 < r1; i0 += kMr) {
      const std::size_t rows = std::min(kMr, r1 - i0);
      // Rows past m repeat the last valid row; their results are dropped.
      const float* arow[kMr];
      for (std::size_t i = 0; i < kMr; ++i) {
        arow[i] = op.a + (i0 + std::min(i, rows - 1)) * op.a_row;
      }
      float* c = op.c + i0 * op.n + j0;
      if (rows == kMr && cols == kNr) {
        Tile(arow, op.a_col, panel.data(), op.k, c, op.n, op.start);
        continue;
      }
      float edge[kMr * kNr] = {};
      for (std::size_t i = 0; i < rows; ++i) {
        std::copy_n(c + i * op.n, cols, edge + i * kNr);
      }
      Tile(arow, op.a_col, panel.data(), op.k, edge, kNr, op.start);
      for (std::size_t i = 0; i < rows; ++i) {
        std::copy_n(edge + i * kNr, cols, c + i * op.n);
      }
    }
  }
}

void Gemm(const Operands& op) {
  // Row blocks are independent: shard them over the host thread pool
  // (serial on single-core machines; see util/parallel.h).
  ParallelFor(0, CeilDiv(op.m, kBlock),
              [&](std::size_t blk_lo, std::size_t blk_hi) {
                GemmRows(op, blk_lo * kBlock, std::min(blk_hi * kBlock, op.m));
              });
}

}  // namespace

void GemmNaive(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  REPRO_REQUIRE(b.rows() == k && c.rows() == m && c.cols() == n,
                "GemmNaive: %zux%zu * %zux%zu -> %zux%zu", a.rows(), a.cols(),
                b.rows(), b.cols(), c.rows(), c.cols());
  if (!accumulate) c.Zero();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a(i, p);
      if (av == 0.0f) continue;
      const float* brow = b.data() + p * n;
      float* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void GemmBlocked(const Matrix& a, const Matrix& b, Matrix& c,
                 bool accumulate) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  REPRO_REQUIRE(b.rows() == k && c.rows() == m && c.cols() == n,
                "GemmBlocked shape mismatch");
  Gemm({a.data(), k, 1, b.data(), n, 1, c.data(), m, k, n,
        accumulate ? Start::kFromC : Start::kZero});
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  // a is (k x m): C(m x n) = A^T * B.
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  REPRO_REQUIRE(b.rows() == k && c.rows() == m && c.cols() == n,
                "GemmTransA shape mismatch");
  Gemm({a.data(), 1, m, b.data(), n, 1, c.data(), m, k, n,
        accumulate ? Start::kFromC : Start::kZero});
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  // b is (n x k): C(m x n) = A * B^T.
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  REPRO_REQUIRE(b.cols() == k && c.rows() == m && c.cols() == n,
                "GemmTransB shape mismatch");
  Gemm({a.data(), k, 1, b.data(), 1, k, c.data(), m, k, n,
        accumulate ? Start::kAddAfter : Start::kZero});
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  GemmBlocked(a, b, c);
  return c;
}

void Gemv(const Matrix& a, std::span<const float> x, std::span<float> y) {
  REPRO_REQUIRE(x.size() == a.cols() && y.size() == a.rows(),
                "Gemv shape mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* row = a.data() + i * a.cols();
    float acc = 0.0f;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}

}  // namespace repro
