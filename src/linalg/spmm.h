// Sparse x dense multiplication (SpMM) for a CSR operand.
// C(m x n) = S(m x k, sparse) * B(k x n, dense).
#pragma once

#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace repro {

void SpmmCsr(const Csr& s, const Matrix& b, Matrix& c, bool accumulate = false);
Matrix SpmmCsr(const Csr& s, const Matrix& b);

// Useful FLOP count for sparse multiply: 2 flops per stored nonzero per
// output column.
inline double SpmmFlops(std::size_t nnz, std::size_t n) {
  return 2.0 * static_cast<double>(nnz) * static_cast<double>(n);
}

}  // namespace repro
