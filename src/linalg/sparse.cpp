#include "linalg/sparse.h"

#include <algorithm>
#include <cmath>

namespace repro {

Matrix CsrToDense(const Csr& csr) {
  Matrix m(csr.rows, csr.cols);
  for (std::size_t r = 0; r < csr.rows; ++r) {
    for (std::uint32_t i = csr.row_ptr[r]; i < csr.row_ptr[r + 1]; ++i) {
      m(r, csr.col_idx[i]) = csr.values[i];
    }
  }
  return m;
}

Csr RandomCsr(std::size_t rows, std::size_t cols, double density, Rng& rng) {
  REPRO_REQUIRE(density >= 0.0 && density <= 1.0, "density %f out of [0,1]",
                density);
  const std::size_t total = rows * cols;
  const std::size_t target =
      static_cast<std::size_t>(std::llround(density * total));
  // Per-row reservoir: distribute target nnz as evenly as possible, then
  // sample distinct columns per row. Even distribution matches how the
  // paper's generators produce unstructured sparsity.
  Csr csr;
  csr.rows = rows;
  csr.cols = cols;
  csr.row_ptr.reserve(rows + 1);
  csr.row_ptr.push_back(0);
  // Distribute target nnz evenly: the first (target % rows) rows get one
  // extra entry, every row gets target / rows.
  const std::size_t base = rows == 0 ? 0 : target / rows;
  const std::size_t extra = rows == 0 ? 0 : target % rows;
  std::vector<std::uint32_t> picks;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t k = std::min(base + (r < extra ? 1 : 0), cols);
    // Sample k distinct columns via partial Fisher-Yates over indices.
    picks.clear();
    if (k * 3 >= cols) {
      std::vector<std::size_t> perm = rng.Permutation(cols);
      picks.assign(perm.begin(), perm.begin() + k);
    } else {
      while (picks.size() < k) {
        const std::uint32_t c = static_cast<std::uint32_t>(rng.Below(cols));
        if (std::find(picks.begin(), picks.end(), c) == picks.end()) {
          picks.push_back(c);
        }
      }
    }
    std::sort(picks.begin(), picks.end());
    for (std::uint32_t c : picks) {
      csr.col_idx.push_back(c);
      csr.values.push_back(static_cast<float>(rng.Normal()));
    }
    csr.row_ptr.push_back(static_cast<std::uint32_t>(csr.values.size()));
  }
  return csr;
}

}  // namespace repro
