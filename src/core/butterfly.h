// Learnable butterfly factorization (Dao et al. 2019), the paper's primary
// memory-reduction method: T = B P with B a product of log2(n) sparse
// factors of 2x2 blocks (paper eq. 2/3), O(n log n) multiply and O(n log n)
// (dense blocks) or O(n/2 log n) (Givens) parameters instead of O(n^2).
//
// Two parameterizations are provided:
//  * kDense2x2 -- each 2x2 block holds 4 free entries (2 n log2 n params),
//    the standard learnable butterfly.
//  * kGivens   -- each block is a rotation with one angle ((n/2) log2 n
//    params); with n = 1024 this gives 5120 hidden-layer parameters,
//    matching the paper's Table 4 butterfly count (16390 total) to within
//    rounding.
#pragma once

#include <span>
#include <vector>

#include "core/permutation.h"
#include "linalg/matrix.h"
#include "util/rng.h"

namespace repro::core {

enum class ButterflyParam { kDense2x2, kGivens };

class Butterfly {
 public:
  // n must be a power of two. When `with_permutation`, a fixed bit-reversal
  // is applied to the input first (the P of T = B P).
  Butterfly(std::size_t n, ButterflyParam param, bool with_permutation,
            Rng& rng);

  std::size_t n() const { return n_; }
  std::size_t numFactors() const { return num_factors_; }
  ButterflyParam param() const { return param_; }
  std::size_t paramCount() const { return params_.size(); }

  // Records the per-factor inputs needed by Backward.
  struct Workspace {
    std::vector<Matrix> acts;  // acts[0] = permuted input, acts[f+1] = after factor f
  };

  // y = x B^T for each row of x (batch x n); i.e. each row is transformed by
  // the butterfly operator. `ws` may be null for inference.
  void Forward(const Matrix& x, Matrix& y, Workspace* ws = nullptr) const;

  // Given the workspace of the matching Forward and upstream gradient dy,
  // computes dx and accumulates parameter gradients.
  void Backward(const Workspace& ws, const Matrix& dy, Matrix& dx);

  // Dense n x n equivalent of the operator (columns = images of basis
  // vectors), for validation.
  Matrix ToDense() const;

  // Factor f's 2x2 blocks expanded to (a, b, c, d) rows in traversal order
  // (the pair order applyFactor and the device Butterfly2x2 lowering share).
  // Forward and Backward expand each factor once per call; the forward-only
  // serving export uploads the expanded coefficients as the device weight
  // tensor for stage f.
  std::vector<float> FactorCoeffs(std::size_t f) const;

  // The fixed input permutation P of T = B P (size 0 means identity).
  const Permutation& permutation() const { return perm_; }

  std::span<float> params() { return params_; }
  std::span<const float> params() const { return params_; }
  std::span<float> grads() { return grads_; }
  void zeroGrad();

 private:
  void applyFactor(std::size_t f, const Matrix& in, Matrix& out) const;
  std::size_t paramsPerFactor() const;

  std::size_t n_ = 0;
  std::size_t num_factors_ = 0;
  ButterflyParam param_ = ButterflyParam::kDense2x2;
  Permutation perm_;  // empty size 0 => identity
  std::vector<float> params_;
  std::vector<float> grads_;
};

}  // namespace repro::core
