#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "core/pixelfly.h"
#include "linalg/gemm.h"
#include "util/bitops.h"

namespace repro::core {
namespace {

TEST(PixelflyPattern, CountsAndBounds) {
  auto pattern = FlatButterflyPattern(1024, 16, 64);
  // 2 blocks per block-row per level, 64 block rows, log2(64) = 6 levels.
  EXPECT_EQ(pattern.size(), 2u * 64 * 6);
  for (const auto& c : pattern) {
    EXPECT_LT(c.bi, 64u);
    EXPECT_LT(c.bj, 64u);
  }
}

TEST(PixelflyPattern, ButterflyConnectivity) {
  auto pattern = FlatButterflyPattern(64, 8, 8);  // grid 8, levels 3
  // Level k must contain (i, i) and (i, i ^ 2^k) for every block row i.
  std::size_t idx = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      EXPECT_EQ(pattern[idx].bi, i);
      EXPECT_EQ(pattern[idx].bj, i);
      ++idx;
      EXPECT_EQ(pattern[idx].bi, i);
      EXPECT_EQ(pattern[idx].bj, i ^ (1u << k));
      ++idx;
    }
  }
}

TEST(PixelflyPattern, GroupLocality) {
  // With butterfly_size < grid, connectivity stays within s-sized groups.
  auto pattern = FlatButterflyPattern(128, 8, 4);  // grid 16, groups of 4
  for (const auto& c : pattern) {
    EXPECT_EQ(c.bi / 4, c.bj / 4) << "cross-group block " << c.bi << "," << c.bj;
  }
}

TEST(PixelflyConfig, PaperParamCountExactly) {
  // The paper's Table 4 pixelfly N_params: 404490 total = 393216 (hidden) +
  // 11274 (biases + classifier). Our default config reproduces the 393216.
  PixelflyConfig pf;  // n=1024, b=16, s=64, r=96
  EXPECT_EQ(pf.paramCount(), 393216u);
}

class PixelflyConfigs : public ::testing::TestWithParam<PixelflyConfig> {};

TEST_P(PixelflyConfigs, ForwardMatchesDense) {
  PixelflyConfig cfg = GetParam();
  Rng rng(cfg.n + cfg.block_size);
  Pixelfly pf(cfg, rng);
  Matrix dense = pf.ToDense();
  Matrix x = Matrix::RandomNormal(4, cfg.n, rng);
  Matrix y(4, cfg.n);
  pf.Forward(x, y);
  Matrix ref = MatMul(x, dense.Transposed());
  EXPECT_TRUE(AllClose(y, ref, 1e-3, 1e-3));
}

TEST_P(PixelflyConfigs, GradCheck) {
  PixelflyConfig cfg = GetParam();
  if (cfg.n > 64) GTEST_SKIP() << "numeric gradcheck only at small sizes";
  Rng rng(cfg.n + 5);
  Pixelfly pf(cfg, rng);
  const std::size_t batch = 2;
  Matrix x = Matrix::RandomNormal(batch, cfg.n, rng);
  Matrix g = Matrix::RandomNormal(batch, cfg.n, rng);
  Matrix y(batch, cfg.n);
  Pixelfly::Workspace ws;
  pf.Forward(x, y, &ws);
  Matrix dx(batch, cfg.n);
  pf.Backward(ws, g, &dx);

  auto loss = [&]() {
    Matrix yy(batch, cfg.n);
    pf.Forward(x, yy);
    double l = 0.0;
    for (std::size_t i = 0; i < yy.size(); ++i) {
      l += static_cast<double>(yy.data()[i]) * g.data()[i];
    }
    return l;
  };
  const float eps = 1e-3f;
  auto check_params = [&](std::span<float> params, std::span<float> grads,
                          const char* which) {
    for (std::size_t i = 0; i < params.size(); i += 13) {
      const float orig = params[i];
      params[i] = orig + eps;
      const double lp = loss();
      params[i] = orig - eps;
      const double lm = loss();
      params[i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(grads[i], numeric,
                  2e-2 * std::max(1.0, std::abs(numeric)))
          << which << " " << i;
    }
  };
  check_params(pf.blockParams(), pf.blockGrads(), "block");
  check_params(pf.uParams(), pf.uGrads(), "U");
  check_params(pf.vParams(), pf.vGrads(), "V");
  for (std::size_t i = 0; i < x.size(); i += 7) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double lp = loss();
    x.data()[i] = orig - eps;
    const double lm = loss();
    x.data()[i] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx.data()[i], numeric, 2e-2 * std::max(1.0, std::abs(numeric)))
        << "input " << i;
  }
}

PixelflyConfig MakeConfig(std::size_t n, std::size_t b, std::size_t s,
                          std::size_t r, bool residual) {
  PixelflyConfig c;
  c.n = n;
  c.block_size = b;
  c.butterfly_size = s;
  c.low_rank = r;
  c.residual = residual;
  return c;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PixelflyConfigs,
    ::testing::Values(MakeConfig(16, 2, 8, 2, true),
                      MakeConfig(16, 4, 4, 0, true),
                      MakeConfig(32, 4, 8, 4, false),
                      MakeConfig(64, 8, 8, 8, true),
                      MakeConfig(64, 16, 4, 0, false),
                      MakeConfig(128, 16, 8, 16, true)));

// Pixelfly's forward and backward as scalar loops over the batch rows, the
// form they had before the low-rank term moved onto the GEMM wrappers: the
// bitwise oracle for that term. Parameter gradients start from zero.
struct LoopResult {
  Matrix y, dx;
  std::vector<float> block_grads, u_grads, v_grads;
};

LoopResult RunLoops(const Pixelfly& pf, const Matrix& x, const Matrix& dy) {
  const PixelflyConfig& cfg = pf.config();
  const std::size_t n = cfg.n, b = cfg.block_size, r = cfg.low_rank;
  const std::size_t b2 = b * b, batch = x.rows();
  const auto& pattern = pf.pattern();
  const float* blocks = pf.blockParams().data();
  const float* u = pf.u().data();
  const float* v = pf.v().data();
  LoopResult out;
  out.y = cfg.residual ? x : Matrix(batch, n);
  out.dx = cfg.residual ? dy : Matrix(batch, n);
  out.block_grads.assign(pf.blockParams().size(), 0.0f);
  out.u_grads.assign(n * r, 0.0f);
  out.v_grads.assign(n * r, 0.0f);
  Matrix t(batch, std::max<std::size_t>(r, 1));
  for (std::size_t row = 0; row < batch; ++row) {
    const float* xr = x.data() + row * n;
    float* yr = out.y.data() + row * n;
    for (std::size_t q = 0; q < pattern.size(); ++q) {
      const float* w = blocks + q * b2;
      const float* xb = xr + pattern[q].bj * b;
      float* yb = yr + pattern[q].bi * b;
      for (std::size_t i = 0; i < b; ++i) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < b; ++p) acc += w[i * b + p] * xb[p];
        yb[i] += acc;
      }
    }
    if (r == 0) continue;
    float* tr = t.data() + row * r;
    for (std::size_t i = 0; i < n; ++i) {
      const float xv = xr[i];
      if (xv == 0.0f) continue;
      for (std::size_t j = 0; j < r; ++j) tr[j] += xv * v[i * r + j];
    }
    for (std::size_t i = 0; i < n; ++i) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < r; ++j) acc += u[i * r + j] * tr[j];
      yr[i] += acc;
    }
  }
  for (std::size_t row = 0; row < batch; ++row) {
    const float* xr = x.data() + row * n;
    const float* gy = dy.data() + row * n;
    float* gx = out.dx.data() + row * n;
    for (std::size_t q = 0; q < pattern.size(); ++q) {
      const float* w = blocks + q * b2;
      float* gw = out.block_grads.data() + q * b2;
      const float* xb = xr + pattern[q].bj * b;
      const float* gyb = gy + pattern[q].bi * b;
      float* gxb = gx + pattern[q].bj * b;
      for (std::size_t i = 0; i < b; ++i) {
        const float g = gyb[i];
        if (g == 0.0f) continue;
        for (std::size_t p = 0; p < b; ++p) {
          gw[i * b + p] += g * xb[p];
          gxb[p] += w[i * b + p] * g;
        }
      }
    }
    if (r == 0) continue;
    const float* tr = t.data() + row * r;
    std::vector<float> dt(r, 0.0f);
    for (std::size_t i = 0; i < n; ++i) {
      const float g = gy[i];
      if (g == 0.0f) continue;
      for (std::size_t j = 0; j < r; ++j) {
        dt[j] += u[i * r + j] * g;
        out.u_grads[i * r + j] += g * tr[j];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < r; ++j) {
        out.v_grads[i * r + j] += xr[i] * dt[j];
        acc += v[i * r + j] * dt[j];
      }
      gx[i] += acc;
    }
  }
  return out;
}

bool SameBits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(Pixelfly, MatchesLoopReferenceBitwise) {
  for (const std::size_t r : {std::size_t{96}, std::size_t{0}}) {
    PixelflyConfig cfg;  // the paper's SHL hidden layer: n=1024, b=16, s=64
    cfg.low_rank = r;
    Rng rng(25);
    Pixelfly pf(cfg, rng);
    // A ragged batch, with exact zeros where the loops skip work (the ReLU
    // upstream of a hidden layer's gradient produces them).
    const std::size_t batch = 5;
    Matrix x = Matrix::RandomNormal(batch, cfg.n, rng);
    Matrix dy = Matrix::RandomNormal(batch, cfg.n, rng);
    for (std::size_t i = 0; i < x.size(); i += 7) x.data()[i] = 0.0f;
    for (std::size_t i = 0; i < dy.size(); i += 3) dy.data()[i] = 0.0f;

    Matrix y(batch, cfg.n), dx;
    Pixelfly::Workspace ws;
    pf.Forward(x, y, &ws);
    pf.Backward(ws, dy, &dx);

    const LoopResult want = RunLoops(pf, x, dy);
    EXPECT_TRUE(SameBits(y.flat(), want.y.flat())) << "forward, r=" << r;
    EXPECT_TRUE(SameBits(dx.flat(), want.dx.flat())) << "dx, r=" << r;
    EXPECT_TRUE(SameBits(pf.blockGrads(), want.block_grads)) << "r=" << r;
    EXPECT_TRUE(SameBits(pf.uGrads(), want.u_grads)) << "r=" << r;
    EXPECT_TRUE(SameBits(pf.vGrads(), want.v_grads)) << "r=" << r;
  }
}

TEST(Pixelfly, ResidualShiftsDenseByIdentity) {
  Rng rng(21);
  PixelflyConfig with = MakeConfig(32, 4, 8, 4, true);
  Pixelfly a(with, rng);
  Rng rng2(21);
  PixelflyConfig without = with;
  without.residual = false;
  Pixelfly b(without, rng2);
  Matrix diff = a.ToDense();
  diff -= b.ToDense();
  EXPECT_TRUE(AllClose(diff, Matrix::Identity(32), 1e-4, 1e-4));
}

TEST(Pixelfly, ZeroLowRankIgnoresUv) {
  Rng rng(22);
  PixelflyConfig cfg = MakeConfig(32, 8, 4, 0, true);
  Pixelfly pf(cfg, rng);
  EXPECT_EQ(pf.uParams().size(), 0u);
  EXPECT_EQ(pf.paramCount(), pf.blockParams().size());
}

TEST(Pixelfly, ParamCountMatchesStorage) {
  Rng rng(23);
  PixelflyConfig cfg = MakeConfig(64, 8, 8, 8, true);
  Pixelfly pf(cfg, rng);
  EXPECT_EQ(pf.paramCount(), pf.blockParams().size() + pf.uParams().size() +
                                 pf.vParams().size());
}

TEST(PixelflyPattern, RejectsBadConfigs) {
  EXPECT_DEATH(FlatButterflyPattern(100, 16, 4), "divide");
  EXPECT_DEATH(FlatButterflyPattern(64, 8, 16), "power of two in");
  EXPECT_DEATH(FlatButterflyPattern(64, 8, 3), "power of two in");
}

TEST(Pixelfly, FlatSumCommutes) {
  // Flat butterfly is a *sum*, so permuting the pattern order must not
  // change the operator. Compare against a pixelfly whose duplicated
  // diagonal blocks are merged by summation into a dense reference.
  Rng rng(24);
  PixelflyConfig cfg = MakeConfig(16, 4, 4, 0, false);
  Pixelfly pf(cfg, rng);
  const std::size_t b = cfg.block_size;
  Matrix manual(16, 16);
  const auto& pattern = pf.pattern();
  for (std::size_t q = 0; q < pattern.size(); ++q) {
    const float* w = pf.blockParams().data() + q * b * b;
    for (std::size_t i = 0; i < b; ++i) {
      for (std::size_t j = 0; j < b; ++j) {
        manual(pattern[q].bi * b + i, pattern[q].bj * b + j) += w[i * b + j];
      }
    }
  }
  EXPECT_TRUE(AllClose(pf.ToDense(), manual, 1e-4, 1e-4));
}

}  // namespace
}  // namespace repro::core
