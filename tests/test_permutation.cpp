#include <gtest/gtest.h>

#include "core/permutation.h"
#include "linalg/gemm.h"

namespace repro::core {
namespace {

TEST(Permutation, BitReversalIsInvolution) {
  auto p = Permutation::BitReversal(16);
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[p[i]], i);
}

TEST(Permutation, ApplyToColumnsMatchesDense) {
  Rng rng(7);
  auto p = Permutation::Random(12, rng);
  Matrix x = Matrix::RandomNormal(4, 12, rng);
  Matrix y(4, 12);
  p.ApplyToColumns(x, y);
  // y_row = P_dense * x_row where P_dense(i, perm[i]) = 1.
  Matrix pd = p.ToDense();
  Matrix ref = MatMul(x, pd.Transposed());
  EXPECT_TRUE(AllClose(y, ref));
}

TEST(Permutation, DenseIsOrthogonal) {
  Rng rng(8);
  auto p = Permutation::Random(10, rng);
  Matrix pd = p.ToDense();
  Matrix prod = MatMul(pd, pd.Transposed());
  EXPECT_TRUE(AllClose(prod, Matrix::Identity(10)));
}

TEST(Permutation, RejectsInvalid) {
  EXPECT_DEATH(Permutation({0, 0, 1}), "invalid permutation");
  EXPECT_DEATH(Permutation({0, 5}), "invalid permutation");
}

TEST(Permutation, BitReversalRequiresPow2) {
  EXPECT_DEATH(Permutation::BitReversal(12), "power-of-two");
}

}  // namespace
}  // namespace repro::core
