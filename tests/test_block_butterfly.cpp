#include <gtest/gtest.h>

#include <cmath>

#include "core/block_butterfly.h"
#include "core/pixelfly.h"
#include "linalg/gemm.h"
#include "util/bitops.h"

namespace repro::core {
namespace {

class BlockButterflyConfigs
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlockButterflyConfigs, ForwardMatchesDense) {
  auto [n, b, s] = GetParam();
  Rng rng(n + b);
  BlockButterfly bf(n, b, s, rng);
  Matrix dense = bf.ToDense();
  Matrix x = Matrix::RandomNormal(3, n, rng);
  Matrix y(3, n);
  bf.Forward(x, y);
  Matrix ref = MatMul(x, dense.Transposed());
  EXPECT_TRUE(AllClose(y, ref, 1e-3, 1e-3));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BlockButterflyConfigs,
    ::testing::Values(std::tuple{8, 2, 4}, std::tuple{16, 4, 4},
                      std::tuple{16, 2, 8}, std::tuple{32, 4, 8},
                      std::tuple{64, 8, 8}, std::tuple{64, 16, 4}));

TEST(BlockButterfly, ParamCount) {
  Rng rng(1);
  BlockButterfly bf(64, 8, 8, rng);
  // log2(8) = 3 factors, 8 block rows, 2 blocks of 8x8 each.
  EXPECT_EQ(bf.paramCount(), 3u * 8 * 2 * 64);
  EXPECT_EQ(bf.numFactors(), 3u);
}

TEST(BlockButterfly, ScalarBlocksReduceToButterflyStructure) {
  // With b = 1 the block butterfly is an (unconstrained 2x2) butterfly over
  // butterfly_size elements per group: each output depends on exactly two
  // inputs per factor.
  Rng rng(2);
  BlockButterfly bf(8, 1, 8, rng);
  Matrix d = bf.ToDense();
  // Product of 3 factors with 2 nonzeros/row can reach all 8 columns.
  int nonzeros = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (std::abs(d(i, j)) > 1e-6) ++nonzeros;
    }
  }
  EXPECT_GT(nonzeros, 32);  // dense reach after log2(8) factors
}

TEST(BlockButterfly, NearIdentityAtInitHasBoundedDeviation) {
  Rng rng(3);
  BlockButterfly bf(32, 4, 8, rng);
  Matrix d = bf.ToDense();
  // Init is I + noise per factor: the product stays within a moderate
  // distance of the identity (no exploding entries).
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_LT(std::abs(d.data()[i]), 10.0f);
  }
  double diag_mean = 0.0;
  for (std::size_t i = 0; i < 32; ++i) diag_mean += d(i, i);
  EXPECT_GT(diag_mean / 32.0, 0.3);
}

// The flat-vs-product ablation's core claim: flattening loses expressivity.
// A product of factors can represent a grid-level permutation-like mixing
// whose flat (sum) counterpart with the same pattern cannot.
TEST(BlockButterfly, ProductReachesFurtherThanFlatSum) {
  const std::size_t n = 16, b = 2, s = 8;
  Rng rng(4);
  BlockButterfly prod(n, b, s, rng);
  Matrix dp = prod.ToDense();
  // Product connectivity: output block 0 depends on inputs up to block
  // distance 2^levels - 1; the flat sum only reaches distance 2^(levels-1)
  // (one hop). Check a far block is reachable in the product...
  double far = 0.0;
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t j = 0; j < b; ++j) {
      far += std::abs(dp(i, (3 * b) + j));  // block (0, 3): needs 2 hops
    }
  }
  EXPECT_GT(far, 1e-4);
  // ...while the flat pattern has no (0, 3) block at all (3 = 0^2^k has no
  // solution for a single k).
  auto pattern = FlatButterflyPattern(n, b, s);
  for (const auto& c : pattern) {
    if (c.bi == 0) {
      EXPECT_NE(c.bj, 3u);
    }
  }
}

TEST(BlockButterfly, RejectsBadConfigs) {
  Rng rng(5);
  EXPECT_DEATH(BlockButterfly(10, 3, 2, rng), "divide");
  EXPECT_DEATH(BlockButterfly(16, 4, 3, rng), "power of two");
  EXPECT_DEATH(BlockButterfly(16, 4, 8, rng), "power of two in");
}

}  // namespace
}  // namespace repro::core
