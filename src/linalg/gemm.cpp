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

// The core's register tile: kMr rows by up to kNr columns of C, each row held
// in four-float vectors across the whole k loop. 4 x 12 keeps the 12
// accumulators, the B vectors and one broadcast A value in the 16 SSE
// registers of baseline x86-64.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 12;
constexpr std::size_t kLanes = 4;
constexpr std::size_t kVecs = kNr / kLanes;

// B rows up to this many floats are read in place when they are contiguous
// and made of whole vectors; every other B is packed into kNr-wide panels.
// Short rows are what IPU vertex operands look like (k x batch); longer
// rows read in place lose more to strided loads than packing costs.
constexpr std::size_t kInPlaceMaxN = 64;

typedef float Vec __attribute__((vector_size(16)));

Vec Load(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void Store(float* p, Vec v) { std::memcpy(p, &v, sizeof v); }

// Where each C element's running sum starts, and how it is written back:
//   kZero      from 0, C = sum      (every layout without accumulate)
//   kFromC     from C, C = sum      (GemmBlocked, GemmTransA and GemmSerial
//                                    accumulate)
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

// One kMr x (kTileVecs * kLanes) tile of C (leading dimension ldc), with B's
// tile columns at b + p * ldb. Every element adds its k products one at a
// time in p order, so the result is bitwise that of a scalar loop over p.
template <std::size_t kTileVecs>
void Tile(const float* const* arow, std::size_t a_col, const float* b,
          std::size_t ldb, std::size_t k, float* c, std::size_t ldc,
          Start start) {
  Vec acc[kMr][kTileVecs];
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t v = 0; v < kTileVecs; ++v) {
      acc[i][v] = start == Start::kFromC ? Load(c + i * ldc + v * kLanes)
                                         : Vec{};
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    Vec bv[kTileVecs];
    for (std::size_t v = 0; v < kTileVecs; ++v) {
      bv[v] = Load(b + p * ldb + v * kLanes);
    }
    for (std::size_t i = 0; i < kMr; ++i) {
      const float av = arow[i][p * a_col];
      for (std::size_t v = 0; v < kTileVecs; ++v) acc[i][v] += av * bv[v];
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t v = 0; v < kTileVecs; ++v) {
      float* dst = c + i * ldc + v * kLanes;
      Store(dst, start == Start::kAddAfter ? Load(dst) + acc[i][v] : acc[i][v]);
    }
  }
}

// C rows [i0, i0 + rows) by columns [j0, j0 + cols), rows <= kMr and
// cols <= the tile width, with B's tile columns at b + p * ldb. A partial
// tile runs on a copy of C on the stack.
template <std::size_t kTileVecs>
void RowTile(const Operands& op, std::size_t i0, std::size_t rows,
             std::size_t j0, std::size_t cols, const float* b,
             std::size_t ldb) {
  constexpr std::size_t kWidth = kTileVecs * kLanes;
  // Rows past m repeat the last valid row; their results are dropped.
  const float* arow[kMr];
  for (std::size_t i = 0; i < kMr; ++i) {
    arow[i] = op.a + (i0 + std::min(i, rows - 1)) * op.a_row;
  }
  float* c = op.c + i0 * op.n + j0;
  if (rows == kMr && cols == kWidth) {
    Tile<kTileVecs>(arow, op.a_col, b, ldb, op.k, c, op.n, op.start);
    return;
  }
  float edge[kMr * kWidth] = {};
  for (std::size_t i = 0; i < rows; ++i) {
    std::copy_n(c + i * op.n, cols, edge + i * kWidth);
  }
  Tile<kTileVecs>(arow, op.a_col, b, ldb, op.k, edge, kWidth, op.start);
  for (std::size_t i = 0; i < rows; ++i) {
    std::copy_n(edge + i * kWidth, cols, c + i * op.n);
  }
}

// Rows [r0, r1) of C. Short contiguous B rows of whole vectors are read in
// place, allocating nothing: kNr-wide tiles, then one 8- or 4-wide tile for
// the rest of the row. Any other B is packed once per kNr-wide column panel
// (k x kNr, zero-padded past n) that every row tile of the range reuses.
void GemmRows(const Operands& op, std::size_t r0, std::size_t r1) {
  if (op.b_col == 1 && op.n % kLanes == 0 && op.n <= kInPlaceMaxN) {
    for (std::size_t i0 = r0; i0 < r1; i0 += kMr) {
      const std::size_t rows = std::min(kMr, r1 - i0);
      std::size_t j0 = 0;
      for (; j0 + kNr <= op.n; j0 += kNr) {
        RowTile<kVecs>(op, i0, rows, j0, kNr, op.b + j0, op.b_row);
      }
      if (op.n - j0 == 2 * kLanes) {
        RowTile<2>(op, i0, rows, j0, 2 * kLanes, op.b + j0, op.b_row);
      } else if (op.n - j0 == kLanes) {
        RowTile<1>(op, i0, rows, j0, kLanes, op.b + j0, op.b_row);
      }
    }
    return;
  }
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
      RowTile<kVecs>(op, i0, std::min(kMr, r1 - i0), j0, cols, panel.data(),
                     kNr);
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

void GemmSerial(std::size_t m, std::size_t k, std::size_t n, const float* a,
                const float* b, float* c, bool accumulate) {
  GemmRows({a, k, 1, b, n, 1, c, m, k, n,
            accumulate ? Start::kFromC : Start::kZero},
           0, m);
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
