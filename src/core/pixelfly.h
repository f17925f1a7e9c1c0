// Pixelated butterfly (Chen et al. 2021): the GPU-oriented butterfly variant
// the paper evaluates against plain butterfly on the IPU.
//
//  * Block butterfly: the n x n matrix is viewed as a (n/b) x (n/b) grid of
//    b x b blocks; butterfly connectivity is applied at block granularity
//    (aligned memory access for dense processors).
//  * Flat butterfly: the *product* of butterfly factors is replaced by a
//    first-order approximation -- identity (residual connection) plus the
//    *sum* of the factors -- so one block-sparse matmul replaces log n
//    sequential ones.
//  * A low-rank term U V^T recovers expressiveness lost by flattening.
//
// Parameters: 2 (n/b) log2(s) blocks of b^2 entries + 2 n r for the low-rank
// term. With the paper's SHL setup (n=1024, b=16, s=64, r=96) this gives
// 393216 hidden parameters -- the paper's Table 4 pixelfly count exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "util/rng.h"

namespace repro::core {

struct PixelflyConfig {
  std::size_t n = 1024;
  std::size_t block_size = 16;      // b
  std::size_t butterfly_size = 64;  // s: power of two, <= n/b
  std::size_t low_rank = 96;        // r (0 disables the term)
  bool residual = true;

  std::size_t grid() const { return n / block_size; }
  // Stored (unmerged) parameter count, matching how the reference
  // implementation and the paper count N_params.
  std::size_t paramCount() const;
};

struct BlockCoord {
  std::uint32_t bi = 0;  // block row
  std::uint32_t bj = 0;  // block column
};

// The flat-block-butterfly sparsity pattern: for every level k < log2(s),
// each block row i connects to block columns i and i xor 2^k (within its
// s-sized group). Blocks are listed factor-major; duplicates (the diagonal)
// are kept separate, as stored parameters, and summed at apply time.
std::vector<BlockCoord> FlatButterflyPattern(std::size_t n, std::size_t block,
                                             std::size_t butterfly_size);

class Pixelfly {
 public:
  Pixelfly(const PixelflyConfig& config, Rng& rng);

  const PixelflyConfig& config() const { return config_; }
  std::size_t n() const { return config_.n; }
  std::size_t paramCount() const { return config_.paramCount(); }
  const std::vector<BlockCoord>& pattern() const { return pattern_; }

  struct Workspace {
    Matrix x;  // layer input
    Matrix t;  // low-rank bottleneck activations (batch x r)
  };

  // y = [x +] S x + U V^T x per row of the batch matrix.
  void Forward(const Matrix& x, Matrix& y, Workspace* ws = nullptr) const;
  // Accumulates the parameter gradients of the matching Forward and, when dx
  // is non-null, sets *dx = df/dx^T dy (null: parameter gradients only).
  void Backward(const Workspace& ws, const Matrix& dy, Matrix* dx);

  Matrix ToDense() const;

  // Parameter tensors: block entries, U, V.
  std::span<float> blockParams() { return blocks_; }
  std::span<const float> blockParams() const { return blocks_; }
  std::span<float> blockGrads() { return block_grads_; }
  std::span<float> uParams() { return u_.flat(); }
  std::span<float> uGrads() { return u_grads_.flat(); }
  std::span<float> vParams() { return v_.flat(); }
  std::span<float> vGrads() { return v_grads_.flat(); }
  const Matrix& u() const { return u_; }  // n x r
  const Matrix& v() const { return v_; }  // n x r

 private:
  PixelflyConfig config_;
  std::vector<BlockCoord> pattern_;
  std::vector<float> blocks_, block_grads_;  // pattern.size() * b * b
  Matrix u_, u_grads_;                       // n x r
  Matrix v_, v_grads_;                       // n x r
};

}  // namespace repro::core
