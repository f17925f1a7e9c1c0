// Host CSR sparse matrices: the random generator behind Table 2's sparse
// rows and the dense expansion tests compare against.
//
// Table 2 of the paper compares cusparse/popsparse SpMM at 90% and 99%
// sparsity in CSR and COO (Note 2: CSR wins on both devices). Both formats
// are modelled on the device side (gpu::SparseFormat, ipu::SparseLayout),
// each over a pattern drawn here as CSR.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "util/rng.h"

namespace repro {

// Compressed sparse row. row_ptr has rows+1 entries; values/col_idx are nnz.
struct Csr {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint32_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;

  std::size_t nnz() const { return values.size(); }
  double density() const {
    return rows * cols == 0 ? 0.0
                            : static_cast<double>(nnz()) / (rows * cols);
  }
  // Bytes of the representation (4B value + 4B column per nnz + row_ptr).
  std::size_t bytes() const {
    return values.size() * 8 + row_ptr.size() * 4;
  }
};

Matrix CsrToDense(const Csr& csr);

// Uniform random sparse matrix with expected density `density` and
// N(0,1) values; exact nnz = round(rows*cols*density) sampled without
// replacement so benches at "99% sparsity" are exact.
Csr RandomCsr(std::size_t rows, std::size_t cols, double density, Rng& rng);

}  // namespace repro
