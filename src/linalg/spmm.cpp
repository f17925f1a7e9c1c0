#include "linalg/spmm.h"

namespace repro {

void SpmmCsr(const Csr& s, const Matrix& b, Matrix& c, bool accumulate) {
  REPRO_REQUIRE(b.rows() == s.cols && c.rows() == s.rows && c.cols() == b.cols(),
                "SpmmCsr shape mismatch");
  if (!accumulate) c.Zero();
  const std::size_t n = b.cols();
  for (std::size_t r = 0; r < s.rows; ++r) {
    float* crow = c.data() + r * n;
    for (std::uint32_t i = s.row_ptr[r]; i < s.row_ptr[r + 1]; ++i) {
      const float v = s.values[i];
      const float* brow = b.data() + s.col_idx[i] * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += v * brow[j];
      }
    }
  }
}

Matrix SpmmCsr(const Csr& s, const Matrix& b) {
  Matrix c(s.rows, b.cols());
  SpmmCsr(s, b, c);
  return c;
}

}  // namespace repro
