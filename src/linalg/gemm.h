// Dense matrix multiplication kernels.
//
// GemmNaive is the reference. GemmBlocked, GemmTransA and GemmTransB are the
// three layouts the host NN trainer multiplies in (Table 4 training runs on
// them); all three are wrappers over one register-tiled core that shards row
// blocks of C over the host thread pool. GemmSerial runs the same core on
// the calling thread for the IPU simulator's GEMM vertices. Every C element
// adds its k products one at a time in p order, starting from the value
// named on each wrapper, so results are bitwise independent of tiling and
// thread count.
#pragma once

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

// C(m x n) (+)= A(m x k) * B(k x n) on raw row-major arrays, on the calling
// thread only: callers that already shard their work (the IPU engine's
// vertex groups, one serving replica per host worker) must not nest the
// thread pool. Each element starts from C when accumulating, else from 0.
// The caller guarantees the array extents; the function checks nothing.
void GemmSerial(std::size_t m, std::size_t k, std::size_t n, const float* a,
                const float* b, float* c, bool accumulate);

// Convenience allocating form of GemmBlocked.
Matrix MatMul(const Matrix& a, const Matrix& b);

// y = A * x for a single vector (used by small kernels and tests).
void Gemv(const Matrix& a, std::span<const float> x, std::span<float> y);

// FLOP count of an (m x k) * (k x n) multiply (2 flops per MAC).
inline double GemmFlops(std::size_t m, std::size_t k, std::size_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n);
}

}  // namespace repro
