// Block butterfly with the *true product* form (Chen et al.'s intermediate
// construction, before the "flat" first-order approximation): the n x n
// matrix is a (n/b)-grid of b x b blocks, and each of the log2(s) factors
// applies an invertible 2x2-of-blocks mixing along butterfly connectivity.
//
// Pixelfly replaces the product of these factors by identity + their sum
// (core/pixelfly.h). This class keeps the product, so the two can be
// compared directly -- the "flat vs product" ablation DESIGN.md calls out:
// the product is strictly more expressive per parameter but needs log2(s)
// sequential (un-parallelisable) stages, which is exactly the trade the
// paper's Fig. 7 discussion is about.
#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "util/rng.h"

namespace repro::core {

class BlockButterfly {
 public:
  // n divisible by b; butterfly_size a power of two <= n/b. Each factor k
  // holds, per block-row i, two b x b blocks mapping block-columns i and
  // i xor 2^k (within s-groups) to block-row i.
  BlockButterfly(std::size_t n, std::size_t block_size,
                 std::size_t butterfly_size, Rng& rng);

  std::size_t n() const { return n_; }
  std::size_t blockSize() const { return b_; }
  std::size_t numFactors() const { return levels_; }
  std::size_t paramCount() const { return params_.size(); }

  // y_row = (B_{L-1} ... B_0) x_row for each row of the batch matrix.
  void Forward(const Matrix& x, Matrix& y) const;

  Matrix ToDense() const;

 private:
  // Block q of factor k: index (k * grid + i) * 2 + which, where which = 0
  // is the diagonal (i <- i) block and which = 1 the partner (i <- i^2^k).
  const float* block(std::size_t k, std::size_t i, int which) const;
  void applyFactor(std::size_t k, const Matrix& in, Matrix& out) const;

  std::size_t n_ = 0;
  std::size_t b_ = 0;
  std::size_t grid_ = 0;
  std::size_t levels_ = 0;
  std::vector<float> params_;  // levels * grid * 2 * b * b
};

}  // namespace repro::core
