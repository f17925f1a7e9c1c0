// Permutations: the P in the butterfly factorization T = B P (paper eq. 3).
// The FFT special case uses bit reversal (the recursive even/odd split of
// eq. 1); learnable butterflies may use any fixed permutation.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "util/rng.h"

namespace repro::core {

class Permutation {
 public:
  Permutation() = default;
  explicit Permutation(std::vector<std::uint32_t> indices);

  // perm[i] = bit-reverse(i): the Cooley-Tukey input ordering.
  static Permutation BitReversal(std::size_t n);
  static Permutation Random(std::size_t n, Rng& rng);

  std::size_t size() const { return perm_.size(); }
  std::uint32_t operator[](std::size_t i) const { return perm_[i]; }

  // y[i] = x[perm[i]] for each row of the batch matrix (columns permuted).
  void ApplyToColumns(const Matrix& x, Matrix& y) const;

  Matrix ToDense() const;

 private:
  std::vector<std::uint32_t> perm_;
};

}  // namespace repro::core
