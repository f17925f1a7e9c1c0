#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "data/synthetic.h"
#include "linalg/gemm.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/structured.h"
#include "nn/trainer.h"

namespace repro::nn {
namespace {

// Generic numeric gradient check for any layer. It also requires a
// parameter-gradients-only backward (null dx) to produce bitwise the
// parameter gradients of the full backward.
void GradCheck(Layer& layer, std::size_t batch, double tol = 2e-2) {
  Rng rng(99);
  Matrix x = Matrix::RandomNormal(batch, layer.inDim(), rng);
  Matrix g = Matrix::RandomNormal(batch, layer.outDim(), rng);
  Matrix y;
  layer.Forward(x, y, /*train=*/true);
  layer.zeroGrad();
  layer.Backward(g, nullptr);
  std::vector<std::vector<float>> params_only;
  for (const auto& p : layer.parameters()) {
    params_only.emplace_back(p.grad.begin(), p.grad.end());
  }
  layer.zeroGrad();
  Matrix dx;
  layer.Backward(g, &dx);
  const std::vector<ParamRef> full = layer.parameters();
  ASSERT_EQ(full.size(), params_only.size());
  for (std::size_t t = 0; t < full.size(); ++t) {
    EXPECT_EQ(std::memcmp(full[t].grad.data(), params_only[t].data(),
                          params_only[t].size() * sizeof(float)),
              0)
        << layer.name() << " parameter tensor " << t;
  }

  auto loss = [&]() {
    Matrix yy;
    layer.Forward(x, yy, /*train=*/false);
    double l = 0.0;
    for (std::size_t i = 0; i < yy.size(); ++i) {
      l += static_cast<double>(yy.data()[i]) * g.data()[i];
    }
    return l;
  };
  const float eps = 1e-3f;
  for (auto& p : layer.parameters()) {
    for (std::size_t i = 0; i < p.value.size(); i += 11) {
      const float orig = p.value[i];
      p.value[i] = orig + eps;
      const double lp = loss();
      p.value[i] = orig - eps;
      const double lm = loss();
      p.value[i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p.grad[i], numeric, tol * std::max(1.0, std::abs(numeric)))
          << layer.name() << " param " << i;
    }
  }
  for (std::size_t i = 0; i < x.size(); i += 7) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double lp = loss();
    x.data()[i] = orig - eps;
    const double lm = loss();
    x.data()[i] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx.data()[i], numeric, tol * std::max(1.0, std::abs(numeric)))
        << layer.name() << " input " << i;
  }
}

TEST(LinearLayer, GradCheck) {
  Rng rng(1);
  Linear l(12, 8, rng);
  GradCheck(l, 3);
}

TEST(LinearLayer, ForwardMatchesGemm) {
  Rng rng(2);
  Linear l(5, 4, rng, /*bias=*/false);
  Matrix x = Matrix::RandomNormal(3, 5, rng);
  Matrix y;
  l.Forward(x, y, false);
  Matrix ref = MatMul(x, l.weight());
  EXPECT_TRUE(AllClose(y, ref));
}

TEST(LinearLayer, ParamCount) {
  Rng rng(3);
  Linear l(1024, 1024, rng);
  EXPECT_EQ(l.paramCount(), 1024u * 1024 + 1024);
}

TEST(ButterflyLayerTest, GradCheck) {
  Rng rng(4);
  ButterflyLayer l(16, core::ButterflyParam::kDense2x2, rng);
  GradCheck(l, 2);
}

TEST(ButterflyLayerTest, GivensGradCheck) {
  Rng rng(5);
  ButterflyLayer l(16, core::ButterflyParam::kGivens, rng);
  GradCheck(l, 2);
}

TEST(PixelflyLayerTest, GradCheck) {
  Rng rng(6);
  core::PixelflyConfig cfg;
  cfg.n = 16;
  cfg.block_size = 4;
  cfg.butterfly_size = 4;
  cfg.low_rank = 2;
  PixelflyLayer l(cfg, rng);
  GradCheck(l, 2);
}

TEST(FastfoodLayerTest, GradCheck) {
  Rng rng(7);
  FastfoodLayer l(16, rng);
  GradCheck(l, 3);
}

TEST(FastfoodLayerTest, ParamCountIs3NPlusBias) {
  Rng rng(8);
  FastfoodLayer l(1024, rng);
  EXPECT_EQ(l.paramCount(), 3u * 1024 + 1024);
}

TEST(CirculantLayerTest, GradCheck) {
  Rng rng(9);
  CirculantLayer l(16, rng);
  GradCheck(l, 2);
}

TEST(CirculantLayerTest, ShiftKernelShifts) {
  Rng rng(10);
  CirculantLayer l(8, rng);
  // Set c = delta_1: output = input circularly shifted by one.
  auto ps = l.parameters();
  std::fill(ps[0].value.begin(), ps[0].value.end(), 0.0f);
  ps[0].value[1] = 1.0f;
  Matrix x(1, 8);
  for (int i = 0; i < 8; ++i) x(0, i) = static_cast<float>(i);
  Matrix y;
  l.Forward(x, y, false);
  EXPECT_NEAR(y(0, 0), 7.0f, 1e-4);
  EXPECT_NEAR(y(0, 1), 0.0f, 1e-4);
  EXPECT_NEAR(y(0, 7), 6.0f, 1e-4);
}

// The layer's plan, its c spectrum and its cached row spectra against the
// per-row CircularConvolve / CircularCorrelate loop it replaced, bitwise:
// forward in train and eval mode, and backward with and without dx. A
// ragged batch with exact zeros, at n = 1024 (the FFT path) and n = 16 (the
// direct path).
TEST(CirculantLayerTest, MatchesPerRowLoopsBitwise) {
  for (const std::size_t n : {std::size_t{1024}, std::size_t{16}}) {
    Rng rng(n);
    CirculantLayer layer(n, rng);
    std::vector<ParamRef> ps = layer.parameters();
    const std::span<const float> c = ps[0].value, bias = ps[1].value;
    rng.FillNormal(ps[1].value.data(), n, 0.1f);
    const std::size_t batch = 5;
    Matrix x = Matrix::RandomNormal(batch, n, rng);
    Matrix dy = Matrix::RandomNormal(batch, n, rng);
    for (std::size_t i = 0; i < x.size(); i += 7) x.data()[i] = 0.0f;
    for (std::size_t i = 0; i < dy.size(); i += 3) dy.data()[i] = 0.0f;

    Matrix want_y(batch, n), want_dx(batch, n);
    std::vector<float> want_dc(n, 0.0f), want_db(n, 0.0f), dc(n);
    for (std::size_t r = 0; r < batch; ++r) {
      core::CircularConvolve(c, x.row(r), want_y.row(r));
      for (std::size_t j = 0; j < n; ++j) want_y(r, j) += bias[j];
      core::CircularCorrelate(x.row(r), dy.row(r), dc);
      for (std::size_t j = 0; j < n; ++j) want_dc[j] += dc[j];
      core::CircularCorrelate(c, dy.row(r), want_dx.row(r));
      for (std::size_t j = 0; j < n; ++j) want_db[j] += dy(r, j);
    }
    const auto same = [](std::span<const float> a, std::span<const float> b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
    };

    Matrix y;
    layer.Forward(x, y, /*train=*/false);
    EXPECT_TRUE(same(y.flat(), want_y.flat())) << "eval forward, n=" << n;
    layer.Forward(x, y, /*train=*/true);
    EXPECT_TRUE(same(y.flat(), want_y.flat())) << "train forward, n=" << n;
    Matrix dx;
    for (Matrix* out : {static_cast<Matrix*>(nullptr), &dx}) {
      layer.zeroGrad();
      layer.Backward(dy, out);
      EXPECT_TRUE(same(ps[0].grad, want_dc)) << "dc, n=" << n;
      EXPECT_TRUE(same(ps[1].grad, want_db)) << "db, n=" << n;
    }
    EXPECT_TRUE(same(dx.flat(), want_dx.flat())) << "dx, n=" << n;
  }
}

TEST(LowRankLayerTest, GradCheck) {
  Rng rng(11);
  LowRankLayer l(10, 8, 2, rng);
  GradCheck(l, 3);
}

TEST(ReluLayer, ForwardBackward) {
  Relu r(4);
  Matrix x(2, 4);
  x(0, 0) = -1;
  x(0, 1) = 2;
  x(1, 2) = -3;
  x(1, 3) = 4;
  Matrix y;
  r.Forward(x, y, true);
  EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y(0, 1), 2.0f);
  Matrix dy(2, 4, 1.0f), dx;
  r.Backward(dy, &dx);
  EXPECT_FLOAT_EQ(dx(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(dx(1, 3), 1.0f);
}

TEST(Loss, UniformLogitsGiveLogC) {
  Matrix logits(4, 10);
  std::vector<std::uint8_t> labels{0, 3, 7, 9};
  LossResult r = SoftmaxCrossEntropy(logits, labels);
  EXPECT_NEAR(r.loss, std::log(10.0), 1e-6);
}

TEST(Loss, PerfectPredictionLowLoss) {
  Matrix logits(2, 3);
  logits(0, 1) = 50.0f;
  logits(1, 2) = 50.0f;
  std::vector<std::uint8_t> labels{1, 2};
  LossResult r = SoftmaxCrossEntropy(logits, labels);
  EXPECT_LT(r.loss, 1e-6);
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
}

TEST(Loss, GradCheck) {
  Rng rng(12);
  Matrix logits = Matrix::RandomNormal(3, 5, rng);
  std::vector<std::uint8_t> labels{0, 2, 4};
  Matrix dlogits;
  SoftmaxCrossEntropy(logits, labels, &dlogits);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float orig = logits.data()[i];
    logits.data()[i] = orig + eps;
    const double lp = SoftmaxCrossEntropy(logits, labels).loss;
    logits.data()[i] = orig - eps;
    const double lm = SoftmaxCrossEntropy(logits, labels).loss;
    logits.data()[i] = orig;
    EXPECT_NEAR(dlogits.data()[i], (lp - lm) / (2 * eps), 1e-3);
  }
}

TEST(Loss, GradientsSumToZeroPerRow) {
  Rng rng(13);
  Matrix logits = Matrix::RandomNormal(2, 6, rng);
  std::vector<std::uint8_t> labels{1, 5};
  Matrix d;
  SoftmaxCrossEntropy(logits, labels, &d);
  for (std::size_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 6; ++c) sum += d(r, c);
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(Optimizer, SgdDescendsQuadratic) {
  // minimise f(w) = 0.5 * w^2 by SGD with momentum.
  std::vector<float> w{10.0f}, g{0.0f};
  Sgd opt({{std::span<float>(w), std::span<float>(g)}}, {0.1, 0.9, 0.0});
  for (int i = 0; i < 200; ++i) {
    g[0] = w[0];
    opt.Step();
  }
  EXPECT_NEAR(w[0], 0.0f, 1e-3f);
}

TEST(Optimizer, MomentumAcceleratesFirstSteps) {
  std::vector<float> w1{1.0f}, g1{1.0f}, w2{1.0f}, g2{1.0f};
  Sgd no_mom({{std::span<float>(w1), std::span<float>(g1)}}, {0.1, 0.0, 0.0});
  Sgd mom({{std::span<float>(w2), std::span<float>(g2)}}, {0.1, 0.9, 0.0});
  for (int i = 0; i < 3; ++i) {
    g1[0] = 1.0f;
    g2[0] = 1.0f;
    no_mom.Step();
    mom.Step();
  }
  EXPECT_LT(w2[0], w1[0]);  // momentum accumulates
}

TEST(Model, ShlParamCountsMatchPaperTable4) {
  core::ShlShape shape;
  Rng rng(20);
  // Paper Table 4 N_params column, reproduced exactly for four methods and
  // within rounding for butterfly (5120 vs 5116 hidden parameters).
  auto count = [&](core::Method m) {
    Rng r(20);
    Sequential model = BuildShl(m, shape, r);
    return model.paramCount();
  };
  EXPECT_EQ(count(core::Method::kBaseline), 1059850u);
  EXPECT_EQ(count(core::Method::kFastfood), 14346u);
  EXPECT_EQ(count(core::Method::kCirculant), 12298u);
  EXPECT_EQ(count(core::Method::kLowRank), 13322u);
  EXPECT_EQ(count(core::Method::kPixelfly), 404490u);
  EXPECT_EQ(count(core::Method::kButterfly), 16394u);  // paper: 16390
}

TEST(Model, ForwardShapes) {
  core::ShlShape shape;
  Rng rng(21);
  Sequential model = BuildShl(core::Method::kButterfly, shape, rng);
  Matrix x = Matrix::RandomNormal(4, 1024, rng);
  const Matrix& out = model.Forward(x, false);
  EXPECT_EQ(out.rows(), 4u);
  EXPECT_EQ(out.cols(), 10u);
}

TEST(Trainer, LearnsSeparableToyProblem) {
  // Tiny linearly separable task: class = argmax of 4 prototype dot products.
  Rng rng(22);
  data::Dataset d;
  d.num_classes = 4;
  const std::size_t n = 256, dim = 64;
  d.images = Matrix::RandomNormal(n, dim, rng);
  d.labels.resize(n);
  Matrix protos = Matrix::RandomNormal(4, dim, rng);
  for (std::size_t i = 0; i < n; ++i) {
    double best = -1e30;
    int arg = 0;
    for (int c = 0; c < 4; ++c) {
      double dot = 0.0;
      for (std::size_t j = 0; j < dim; ++j) dot += protos(c, j) * d.images(i, j);
      if (dot > best) {
        best = dot;
        arg = c;
      }
    }
    d.labels[i] = static_cast<std::uint8_t>(arg);
  }
  Sequential model;
  Rng mrng(23);
  model.add(std::make_unique<Linear>(dim, 32, mrng));
  model.add(std::make_unique<Relu>(32));
  model.add(std::make_unique<Linear>(32, 4, mrng));
  TrainConfig cfg;
  cfg.epochs = 60;
  cfg.batch_size = 32;
  cfg.lr = 0.05;
  TrainResult res = Train(model, d, d, cfg);
  EXPECT_GT(res.test_accuracy, 85.0);
}

TEST(Trainer, DeterministicAcrossRuns) {
  data::SyntheticConfig dcfg;
  dcfg.num_samples = 200;
  data::Dataset d = data::SyntheticCifar10(dcfg);
  auto run = [&]() {
    Rng mrng(30);
    core::ShlShape shape;
    Sequential model = BuildShl(core::Method::kLowRank, shape, mrng);
    TrainConfig cfg;
    cfg.epochs = 1;
    return Train(model, d, d, cfg).test_accuracy;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Model, RejectsDimMismatch) {
  Rng rng(40);
  Sequential model;
  model.add(std::make_unique<Linear>(8, 4, rng));
  EXPECT_DEATH(model.add(std::make_unique<Relu>(8)), "dim mismatch");
}

TEST(Model, ZeroGradViaOptimizer) {
  Rng rng(41);
  Linear l(4, 4, rng);
  Matrix x = Matrix::RandomNormal(2, 4, rng);
  Matrix y, dx;
  l.Forward(x, y, true);
  l.Backward(y, &dx);
  Sgd opt(l.parameters(), {0.1, 0.0, 0.0});
  opt.ZeroGrad();
  for (auto& p : l.parameters()) {
    for (float g : p.grad) EXPECT_EQ(g, 0.0f);
  }
}

TEST(Model, WeightDecayShrinksWeights) {
  std::vector<float> w{1.0f}, g{0.0f};
  Sgd opt({{std::span<float>(w), std::span<float>(g)}}, {0.1, 0.0, 0.5});
  for (int i = 0; i < 10; ++i) {
    g[0] = 0.0f;  // no data gradient; only decay acts
    opt.Step();
  }
  EXPECT_LT(w[0], 1.0f);
  EXPECT_GT(w[0], 0.0f);
}

TEST(FastfoodLayerTest, OrthonormalPipelinePreservesScale) {
  // With S = B = G = 1 the pipeline is H Pi H, a product of orthonormal
  // maps: norms are preserved exactly.
  Rng rng(42);
  FastfoodLayer l(64, rng);
  auto ps = l.parameters();
  std::fill(ps[0].value.begin(), ps[0].value.end(), 1.0f);  // B
  std::fill(ps[1].value.begin(), ps[1].value.end(), 1.0f);  // G
  std::fill(ps[2].value.begin(), ps[2].value.end(), 1.0f);  // S
  Matrix x = Matrix::RandomNormal(3, 64, rng);
  Matrix y;
  l.Forward(x, y, false);
  EXPECT_NEAR(y.FrobeniusNorm(), x.FrobeniusNorm(), 1e-3);
}

TEST(Trainer, EvaluateMatchesManualArgmax) {
  Rng rng(43);
  data::SyntheticConfig cfg;
  cfg.num_samples = 100;
  data::Dataset d = data::SyntheticCifar10(cfg);
  core::ShlShape shape;
  Sequential model = BuildShl(core::Method::kLowRank, shape, rng);
  // Batches of 25 cover all 100 samples, so Evaluate must count exactly the
  // rows whose argmax over one whole-dataset forward is the label.
  const double acc = Evaluate(model, d, /*batch_size=*/25);
  const Matrix& logits = model.Forward(d.images, /*train=*/false);
  std::size_t correct = 0;
  for (std::size_t r = 0; r < d.size(); ++r) {
    std::size_t argmax = 0;
    for (std::size_t c = 1; c < logits.cols(); ++c) {
      if (logits(r, c) > logits(r, argmax)) argmax = c;
    }
    correct += argmax == d.labels[r] ? 1 : 0;
  }
  EXPECT_DOUBLE_EQ(acc, 100.0 * static_cast<double>(correct) /
                            static_cast<double>(d.size()));
}

TEST(Trainer, StepsCountMatchesSchedule) {
  Rng rng(44);
  data::SyntheticConfig cfg;
  cfg.num_samples = 200;
  data::Dataset d = data::SyntheticCifar10(cfg);
  core::ShlShape shape;
  Sequential model = BuildShl(core::Method::kCirculant, shape, rng);
  TrainConfig tcfg;
  tcfg.epochs = 2;
  tcfg.batch_size = 25;
  TrainResult res = Train(model, d, d, tcfg);
  // 200 * 0.85 = 170 train samples -> 6 full batches of 25, 2 epochs.
  EXPECT_EQ(res.steps, 12u);
  EXPECT_EQ(res.epoch_val_accuracy.size(), 2u);
}

}  // namespace
}  // namespace repro::nn
