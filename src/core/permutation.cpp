#include "core/permutation.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/error.h"

namespace repro::core {

Permutation::Permutation(std::vector<std::uint32_t> indices)
    : perm_(std::move(indices)) {
  std::vector<bool> seen(perm_.size(), false);
  for (auto i : perm_) {
    REPRO_REQUIRE(i < perm_.size() && !seen[i], "invalid permutation");
    seen[i] = true;
  }
}

Permutation Permutation::BitReversal(std::size_t n) {
  REPRO_REQUIRE(IsPow2(n), "bit reversal needs power-of-two size, got %zu", n);
  const unsigned bits = Log2(n);
  std::vector<std::uint32_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = BitReverse(static_cast<std::uint32_t>(i), bits);
  }
  return Permutation(std::move(p));
}

Permutation Permutation::Random(std::size_t n, Rng& rng) {
  auto idx = rng.Permutation(n);
  std::vector<std::uint32_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint32_t>(idx[i]);
  return Permutation(std::move(p));
}

void Permutation::ApplyToColumns(const Matrix& x, Matrix& y) const {
  REPRO_REQUIRE(x.cols() == size() && y.rows() == x.rows() &&
                    y.cols() == x.cols(),
                "permutation apply shape mismatch");
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const float* src = x.data() + r * x.cols();
    float* dst = y.data() + r * y.cols();
    for (std::size_t c = 0; c < size(); ++c) dst[c] = src[perm_[c]];
  }
}

Matrix Permutation::ToDense() const {
  Matrix m(size(), size());
  for (std::size_t i = 0; i < size(); ++i) m(i, perm_[i]) = 1.0f;
  return m;
}

}  // namespace repro::core
