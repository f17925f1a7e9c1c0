// Dense matrix multiplication kernels.
//
// GemmNaive is the reference. GemmBlocked, GemmTransA and GemmTransB are the
// three layouts the host NN trainer multiplies in (Table 4 training runs on
// them); all three are wrappers over one register-tiled core that shards row
// blocks of C over the host thread pool. GemmStrided runs the same core on
// the calling thread, on any strides: the IPU simulator's GEMM vertices
// (through GemmSerial) and pixelfly's block-sparse term call it. Every C
// element adds its k products one at a time in p order, starting from the
// value named on each entry, so results are bitwise independent of tiling
// and thread count.
//
// The core runs at the widest vectors the CPU offers, picked once on first
// use: 4 floats (SSE2, baseline x86-64), 8 (AVX2) or 16 (AVX-512F). Every
// width gives the same bits.
#pragma once

#include <functional>
#include <string_view>

#include "linalg/matrix.h"

namespace repro {

// C = A(m x k) * B(k x n); straightforward triple loop in ikj order.
void GemmNaive(const Matrix& a, const Matrix& b, Matrix& c,
               bool accumulate = false);

// C = A(m x k) * B(k x n); each element starts from C when accumulating,
// else from 0.
void GemmBlocked(const Matrix& a, const Matrix& b, Matrix& c,
                 bool accumulate = false);

// C = A^T * B where A is (k x m), read in place; each element starts from C
// when accumulating, else from 0.
void GemmTransA(const Matrix& a, const Matrix& b, Matrix& c,
                bool accumulate = false);

// C = A * B^T where B is (n x k); each element sums its products from 0 and
// then, when accumulating, is added to C.
void GemmTransB(const Matrix& a, const Matrix& b, Matrix& c,
                bool accumulate = false);

// Where each C element's running sum starts, and how it is written back.
enum class GemmStart {
  kZero,      // from 0, C = sum
  kFromC,     // from C, C = sum
  kAddAfter,  // from 0, C = C + sum
};

// C(i, j) = c[i * ldc + j], i < m, j < n, from A(i, p) = a[i * a_row +
// p * a_col] and B(p, j) = b[p * b_row + j * b_col], p < k: the strides
// express every layout, and ldc >= n lets C be a column block of a wider
// matrix, whose other columns are left alone.
struct GemmOperands {
  const float* a;
  std::size_t a_row, a_col;
  const float* b;
  std::size_t b_row, b_col;
  float* c;
  std::size_t ldc;
  std::size_t m, k, n;
  GemmStart start;
};

// The core on raw strided arrays, on the calling thread only: for callers
// that already shard their work (the IPU engine's vertex groups, one serving
// replica per host worker), which must not nest the thread pool, and for
// products too small to shard (pixelfly's 16 x 16 blocks). The caller
// guarantees the array extents; the function checks nothing.
void GemmStrided(const GemmOperands& op);

// GemmStrided on row-major C(m x n) (+)= A(m x k) * B(k x n): each element
// starts from C when accumulating, else from 0.
void GemmSerial(std::size_t m, std::size_t k, std::size_t n, const float* a,
                const float* b, float* c, bool accumulate);

// The vector width every entry above runs at: "sse2", "avx2" or "avx512".
const char* GemmIsa();

// Test-only: runs `fn` with every entry above at the named width instead of
// GemmIsa()'s, and returns true; returns false without running `fn` when
// this CPU cannot run that width. No other thread may run a GEMM meanwhile.
bool RunAtGemmIsa(std::string_view isa, const std::function<void()>& fn);

// Convenience allocating form of GemmBlocked.
Matrix MatMul(const Matrix& a, const Matrix& b);

// FLOP count of an (m x k) * (k x n) multiply (2 flops per MAC).
inline double GemmFlops(std::size_t m, std::size_t k, std::size_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n);
}

}  // namespace repro
