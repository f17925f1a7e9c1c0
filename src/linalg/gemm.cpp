#include "linalg/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>

#include "util/bitops.h"
#include "util/parallel.h"

namespace repro {
namespace {

// Rows of C per ParallelFor shard.
constexpr std::size_t kBlock = 64;

// The core's register tile: kMr rows by up to kMaxVecs vectors of C, each
// row held in vector registers across the whole k loop. At every vector
// width, 4 x 3 keeps the 12 accumulators, the B vectors and one broadcast A
// value in 16 registers.
constexpr std::size_t kMr = 4;
constexpr std::size_t kMaxVecs = 3;

// B rows up to this many floats are read in place when they are contiguous
// and made of whole 4-float vectors; every other B is packed into column
// panels. Short rows are what IPU vertex operands look like (k x batch);
// longer rows read in place lose more to strided loads than packing costs.
constexpr std::size_t kInPlaceMaxN = 64;

// kLanes floats in one vector register: 4 (SSE2), 8 (AVX2) or 16 (AVX-512F).
template <std::size_t kLanes>
struct Lanes {
  typedef float Vec __attribute__((vector_size(kLanes * sizeof(float))));
};

// A Vec at any float's address (packed, so alignment 1) that may alias
// float; the tile reads and writes memory only through it. These templates
// are compiled for baseline x86-64 and run inlined into the kernel of their
// width, where a memcpy into a Vec left the AVX2 kernel's accumulators on
// the stack, and a load returning a Vec has another ABI without AVX.
template <class Vec>
struct __attribute__((packed, may_alias)) Unaligned {
  Vec v;
};

template <class Vec>
Unaligned<Vec>& At(float* p) {
  return *reinterpret_cast<Unaligned<Vec>*>(p);
}

template <class Vec>
const Unaligned<Vec>& At(const float* p) {
  return *reinterpret_cast<const Unaligned<Vec>*>(p);
}

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

// One kMr x (kVecs * kLanes) tile of C (leading dimension ldc), with B's
// tile columns at b + p * ldb. Every element adds its k products one at a
// time in p order, so the result is bitwise that of a scalar loop over p,
// at any vector width.
template <std::size_t kLanes, std::size_t kVecs>
void Tile(const float* const* arow, std::size_t a_col, const float* b,
          std::size_t ldb, std::size_t k, float* c, std::size_t ldc,
          Start start) {
  using Vec = typename Lanes<kLanes>::Vec;
  Vec acc[kMr][kVecs];
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      acc[i][v] = start == Start::kFromC ? At<Vec>(c + i * ldc + v * kLanes).v
                                         : Vec{};
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    Vec bv[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      bv[v] = At<Vec>(b + p * ldb + v * kLanes).v;
    }
    for (std::size_t i = 0; i < kMr; ++i) {
      const float av = arow[i][p * a_col];
      for (std::size_t v = 0; v < kVecs; ++v) acc[i][v] += av * bv[v];
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      Unaligned<Vec>& dst = At<Vec>(c + i * ldc + v * kLanes);
      dst.v = start == Start::kAddAfter ? dst.v + acc[i][v] : acc[i][v];
    }
  }
}

// C rows [i0, i0 + rows) by columns [j0, j0 + cols), rows <= kMr and
// cols <= the tile width, with B's tile columns at b + p * ldb. A partial
// tile runs on a copy of C on the stack.
template <std::size_t kLanes, std::size_t kVecs>
void RowTile(const Operands& op, std::size_t i0, std::size_t rows,
             std::size_t j0, std::size_t cols, const float* b,
             std::size_t ldb) {
  constexpr std::size_t kWidth = kVecs * kLanes;
  // Rows past m repeat the last valid row; their results are dropped.
  const float* arow[kMr];
  for (std::size_t i = 0; i < kMr; ++i) {
    arow[i] = op.a + (i0 + std::min(i, rows - 1)) * op.a_row;
  }
  float* c = op.c + i0 * op.n + j0;
  if (rows == kMr && cols == kWidth) {
    Tile<kLanes, kVecs>(arow, op.a_col, b, ldb, op.k, c, op.n, op.start);
    return;
  }
  float edge[kMr * kWidth] = {};
  for (std::size_t i = 0; i < rows; ++i) {
    std::copy_n(c + i * op.n, cols, edge + i * kWidth);
  }
  Tile<kLanes, kVecs>(arow, op.a_col, b, ldb, op.k, edge, kWidth, op.start);
  for (std::size_t i = 0; i < rows; ++i) {
    std::copy_n(edge + i * kWidth, cols, c + i * op.n);
  }
}

// RowTile with a run-time vector count, 1 to kMaxVecs.
template <std::size_t kLanes>
void RowTileVecs(std::size_t vecs, const Operands& op, std::size_t i0,
                 std::size_t rows, std::size_t j0, std::size_t cols,
                 const float* b, std::size_t ldb) {
  if (vecs == 3) {
    RowTile<kLanes, 3>(op, i0, rows, j0, cols, b, ldb);
  } else if (vecs == 2) {
    RowTile<kLanes, 2>(op, i0, rows, j0, cols, b, ldb);
  } else {
    RowTile<kLanes, 1>(op, i0, rows, j0, cols, b, ldb);
  }
}

// Columns [j0, n) of rows [i0, i0 + rows), B read in place (n - j0 is a
// multiple of 4): full-width tiles, then whole kLanes vectors, then the
// rest of the row at half the width, so no load passes the row end.
template <std::size_t kLanes>
void InPlaceColumns(const Operands& op, std::size_t i0, std::size_t rows,
                    std::size_t j0) {
  constexpr std::size_t kNr = kMaxVecs * kLanes;
  for (; j0 + kNr <= op.n; j0 += kNr) {
    RowTile<kLanes, kMaxVecs>(op, i0, rows, j0, kNr, op.b + j0, op.b_row);
  }
  if (const std::size_t vecs = (op.n - j0) / kLanes; vecs > 0) {
    RowTileVecs<kLanes>(vecs, op, i0, rows, j0, vecs * kLanes, op.b + j0,
                        op.b_row);
    j0 += vecs * kLanes;
  }
  if constexpr (kLanes > 4) {
    if (j0 < op.n) InPlaceColumns<kLanes / 2>(op, i0, rows, j0);
  }
}

// RowTile of `vecs` vectors of `lanes` floats, lanes <= kLanes.
template <std::size_t kLanes>
void RowTileAt(std::size_t lanes, std::size_t vecs, const Operands& op,
               std::size_t i0, std::size_t rows, std::size_t j0,
               std::size_t cols, const float* b, std::size_t ldb) {
  if constexpr (kLanes > 4) {
    if (lanes < kLanes) {
      RowTileAt<kLanes / 2>(lanes, vecs, op, i0, rows, j0, cols, b, ldb);
      return;
    }
  }
  RowTileVecs<kLanes>(vecs, op, i0, rows, j0, cols, b, ldb);
}

// Rows [r0, r1) of C with vectors of up to kLanes floats. Short contiguous
// B rows of whole 4-float vectors are read in place, allocating nothing.
// Any other B is packed once per column panel (zero-padded past n) that
// every row tile of the range reuses.
template <std::size_t kLanes>
void GemmRows(const Operands& op, std::size_t r0, std::size_t r1) {
  if (op.b_col == 1 && op.n % 4 == 0 && op.n <= kInPlaceMaxN) {
    for (std::size_t i0 = r0; i0 < r1; i0 += kMr) {
      InPlaceColumns<kLanes>(op, i0, std::min(kMr, r1 - i0), 0);
    }
    return;
  }
  constexpr std::size_t kNr = kMaxVecs * kLanes;
  // Left uninitialized: packing writes every float a tile reads.
  const std::unique_ptr<float[]> panel(
      new float[op.k * std::min(kNr, CeilDiv(op.n, kLanes) * kLanes)]);
  for (std::size_t j0 = 0; j0 < op.n; j0 += kNr) {
    const std::size_t cols = std::min(kNr, op.n - j0);
    // One tile spans the panel: as few vectors as cover cols, each only as
    // wide (kLanes, halved down to 4 floats) as that count needs. A full
    // panel is kMaxVecs vectors of kLanes; n = 10 is one 16-float vector
    // past SSE2, not a wide panel of padding; n = 4 is one 4-float vector.
    const std::size_t vecs = CeilDiv(cols, kLanes);
    std::size_t lanes = kLanes;
    while (lanes > 4 && vecs * lanes / 2 >= cols) lanes /= 2;
    const std::size_t width = vecs * lanes;
    for (std::size_t p = 0; p < op.k; ++p) {
      for (std::size_t j = 0; j < width; ++j) {
        panel[p * width + j] =
            j < cols ? op.b[p * op.b_row + (j0 + j) * op.b_col] : 0.0f;
      }
    }
    for (std::size_t i0 = r0; i0 < r1; i0 += kMr) {
      RowTileAt<kLanes>(lanes, vecs, op, i0, std::min(kMr, r1 - i0), j0, cols,
                        panel.get(), width);
    }
  }
}

using RowsFn = void (*)(const Operands&, std::size_t, std::size_t);

// The wide widths are compiled for their ISA here, with the whole core
// inlined (flatten), while the rest of the library stays baseline x86-64.
// The build pins -ffp-contract=off, so AVX-512F's FMA cannot fuse a
// product into its sum.
#if defined(__x86_64__)
__attribute__((target("avx2"), flatten)) void GemmRowsAvx2(
    const Operands& op, std::size_t r0, std::size_t r1) {
  GemmRows<8>(op, r0, r1);
}

__attribute__((target("avx512f"), flatten)) void GemmRowsAvx512(
    const Operands& op, std::size_t r0, std::size_t r1) {
  GemmRows<16>(op, r0, r1);
}
#endif

struct Width {
  const char* isa;
  std::size_t lanes;
  RowsFn rows;
};

// Narrowest first; the first runs on every CPU.
constexpr Width kWidths[] = {
    {"sse2", 4, GemmRows<4>},
#if defined(__x86_64__)
    {"avx2", 8, GemmRowsAvx2},
    {"avx512", 16, GemmRowsAvx512},
#endif
};

bool Supported(const Width& w) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (w.lanes == 8) return __builtin_cpu_supports("avx2");
  if (w.lanes == 16) return __builtin_cpu_supports("avx512f");
#endif
  return w.lanes == 4;
}

// The widest width this CPU runs, picked on first use.
const Width& Widest() {
  static const Width* const widest = [] {
    const Width* best = &kWidths[0];
    for (const Width& w : kWidths) {
      if (Supported(w)) best = &w;
    }
    return best;
  }();
  return *widest;
}

// Set only inside RunAtGemmIsa.
std::atomic<const Width*> g_forced{nullptr};

RowsFn ActiveRows() {
  const Width* forced = g_forced.load();
  return forced != nullptr ? forced->rows : Widest().rows;
}

void Gemm(const Operands& op) {
  // Row blocks are independent: shard them over the host thread pool
  // (serial on single-core machines; see util/parallel.h).
  const RowsFn rows = ActiveRows();
  ParallelFor(0, CeilDiv(op.m, kBlock),
              [&](std::size_t blk_lo, std::size_t blk_hi) {
                rows(op, blk_lo * kBlock, std::min(blk_hi * kBlock, op.m));
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
  ActiveRows()({a, k, 1, b, n, 1, c, m, k, n,
                accumulate ? Start::kFromC : Start::kZero},
               0, m);
}

const char* GemmIsa() { return Widest().isa; }

bool RunAtGemmIsa(std::string_view isa, const std::function<void()>& fn) {
  for (const Width& w : kWidths) {
    if (isa != w.isa) continue;
    if (!Supported(w)) return false;
    g_forced = &w;
    struct Restore {
      ~Restore() { g_forced = nullptr; }
    } restore;
    fn();
    return true;
  }
  return false;
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
