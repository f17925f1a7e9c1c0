// Failure injection: malformed graphs, inconsistent plans, and bad inputs
// must fail loudly (Status for data-dependent conditions, fatal checks for
// API misuse) -- never silently compute garbage.
#include <gtest/gtest.h>

#include "core/butterfly.h"
#include "core/fft.h"
#include "ipusim/codelet.h"
#include "ipusim/matmul.h"
#include "ipusim/session.h"
#include "linalg/gemm.h"
#include "linalg/spmm.h"
#include "nn/structured.h"

namespace repro {
namespace {

using namespace repro::ipu;

TEST(FailureInjection, SessionRunBeforeCompileDies) {
  Session session(Gc200());
  EXPECT_DEATH(session.run(), "before compile");
}

TEST(FailureInjection, SessionCompileTwiceDies) {
  Session session(Gc200());
  Tensor t = session.graph().addVariable("x", 4);
  session.graph().setTileMapping(t, 0);
  ASSERT_TRUE(session.compile(Program::Sequence({})).ok());
  EXPECT_DEATH({ (void)session.compile(Program::Sequence({})); }, "twice");
}

TEST(FailureInjection, SessionRejectsAbsurdHostThreads) {
  EXPECT_DEATH(Session(Gc200(), SessionOptions{.host_threads = 100000}),
               "host_threads");
}

TEST(FailureInjection, OverlappingVertexOutputsRejectedAtCompile) {
  // Two vertices in one compute set writing the same elements violates the
  // BSP disjointness contract; the compiler must refuse, not race.
  Session session(Gc200());
  Graph& g = session.graph();
  Tensor x = g.addVariable("x", 8);
  g.setTileMapping(x, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  for (int i = 0; i < 2; ++i) {
    VertexId v = g.addVertex(cs, codelets::kRelu, 0);
    g.connect(v, "x", x);
    g.connect(v, "y", x, true);
  }
  Status s = session.compile(Program::Execute(cs));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(s.message().find("overlap"), std::string::npos) << s.message();
}

TEST(FailureInjection, VertexMissingFieldDiesAtExecution) {
  Session session(Gc200());
  Graph& g = session.graph();
  Tensor x = g.addVariable("x", 4);
  g.setTileMapping(x, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kRelu, 0);
  g.connect(v, "x", x);
  // "y" is never connected.
  ASSERT_TRUE(session.compile(Program::Execute(cs)).ok());
  EXPECT_DEATH(session.run(), "not connected");
}

TEST(FailureInjection, GemmVertexShapeMismatchDies) {
  Session session(Gc200());
  Graph& g = session.graph();
  Tensor a = g.addVariable("a", 4);
  Tensor b = g.addVariable("b", 4);
  Tensor c = g.addVariable("c", 4);
  g.setTileMapping(a, 0);
  g.setTileMapping(b, 0);
  g.setTileMapping(c, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kScalarGemm, 0);
  g.connect(v, "a", a);
  g.connect(v, "b", b);
  g.connect(v, "out", c, true);
  g.setInitialValue(v, "m", 4);  // claims 4x4x4 but buffers hold 4 elements
  g.setInitialValue(v, "k", 4);
  g.setInitialValue(v, "n", 4);
  ASSERT_TRUE(session.compile(Program::Execute(cs)).ok());
  EXPECT_DEATH(session.run(), "shape mismatch");
}

TEST(FailureInjection, ConnectEmptyTensorDies) {
  Graph g(Gc200());
  Tensor x = g.addVariable("x", 4);
  g.setTileMapping(x, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kRelu, 0);
  EXPECT_DEATH(g.connect(v, "x", x.slice(0, 0)), "empty tensor");
}

TEST(FailureInjection, VertexOnInvalidTileDies) {
  Graph g(Gc200());
  ComputeSetId cs = g.addComputeSet("cs");
  EXPECT_DEATH(g.addVertex(cs, codelets::kRelu, 1472), "out of range");
}

TEST(FailureInjection, MappingInvalidTileDies) {
  Graph g(Gc200());
  Tensor x = g.addVariable("x", 4);
  EXPECT_DEATH(g.setTileMapping(x, 99999), "out of range");
}

TEST(FailureInjection, WriteTensorWrongSizeDies) {
  Session session(Gc200());
  Tensor x = session.graph().addVariable("x", 4);
  session.graph().setTileMapping(x, 0);
  ASSERT_TRUE(session.compile(Program::Sequence({})).ok());
  std::vector<float> wrong(3);
  EXPECT_DEATH(session.writeTensor(x, wrong), "size mismatch");
}

// Host IO trusts no Tensor handle: a window past the variable's end (also
// one whose offset + numel wraps around) or a variable the graph does not
// have dies before any byte moves.
TEST(FailureInjection, WriteTensorOutsideTheGraphDies) {
  Session session(Gc200());
  Tensor a = session.graph().addVariable("a", 8);
  session.graph().setTileMapping(a, 0);
  ASSERT_TRUE(session.compile(Program::Sequence({})).ok());
  std::vector<float> data(8, 1.0f);
  EXPECT_DEATH(session.writeTensor(Tensor{a.var, 1u << 20, 8, 1, 8}, data),
               "outside variable");
  EXPECT_DEATH(session.writeTensor(
                   Tensor{a.var, 4, SIZE_MAX - 2, 1, SIZE_MAX - 2}, data),
               "outside variable");
  EXPECT_DEATH(session.writeTensor(Tensor{a.var + 1, 0, 8, 1, 8}, data),
               "graph has 1");
}

TEST(FailureInjection, ReadTensorOutsideTheGraphDies) {
  Session session(Gc200());
  Tensor a = session.graph().addVariable("a", 8);
  session.graph().setTileMapping(a, 0);
  ASSERT_TRUE(session.compile(Program::Sequence({})).ok());
  std::vector<float> out(8);
  EXPECT_DEATH(session.readTensor(Tensor{a.var, 1u << 20, 8, 1, 8}, out),
               "outside variable");
  EXPECT_DEATH(
      session.readTensor(Tensor{a.var, 4, SIZE_MAX - 2, 1, SIZE_MAX - 2}, out),
      "outside variable");
  EXPECT_DEATH(session.readTensor(Tensor{kInvalidId, 0, 8, 1, 8}, out),
               "graph has 1");
}

TEST(FailureInjection, MatmulZeroDimensionDies) {
  Graph g(Gc200());
  EXPECT_DEATH(
      { auto r = BuildMatMul(g, 0, 4, 4, MatMulImpl::kPoplin); (void)r; },
      "empty matmul");
}

TEST(FailureInjection, GemmHostShapeMismatchDies) {
  Rng rng(1);
  Matrix a = Matrix::RandomNormal(3, 4, rng);
  Matrix b = Matrix::RandomNormal(5, 2, rng);  // inner dims disagree
  Matrix c(3, 2);
  EXPECT_DEATH(GemmNaive(a, b, c), "GemmNaive");
}

TEST(FailureInjection, SpmmShapeMismatchDies) {
  Rng rng(2);
  Csr s = RandomCsr(4, 4, 0.5, rng);
  Matrix b = Matrix::RandomNormal(5, 2, rng);
  Matrix c(4, 2);
  EXPECT_DEATH(SpmmCsr(s, b, c), "shape mismatch");
}

TEST(FailureInjection, CircularConvolveSizeMismatchDies) {
  std::vector<float> c(8), x(7), out(8);
  EXPECT_DEATH(core::CircularConvolve(c, x, out), "size mismatch");
}

TEST(FailureInjection, ButterflyStaleWorkspaceDies) {
  Rng rng(3);
  core::Butterfly bf(8, core::ButterflyParam::kDense2x2, false, rng);
  core::Butterfly::Workspace ws;  // never filled by a Forward
  Matrix dy = Matrix::RandomNormal(2, 8, rng);
  Matrix dx(2, 8);
  EXPECT_DEATH(bf.Backward(ws, dy, dx), "stale");
}

// A backward of more rows than the train-mode forward cached must die, not
// read past the cache.
TEST(FailureInjection, ButterflyBackwardPastTheCachedBatchDies) {
  Rng rng(4);
  core::Butterfly bf(8, core::ButterflyParam::kGivens, true, rng);
  core::Butterfly::Workspace ws;
  Matrix y(2, 8);
  bf.Forward(Matrix::RandomNormal(2, 8, rng), y, &ws);
  const Matrix dy = Matrix::RandomNormal(3, 8, rng);
  Matrix dx;
  EXPECT_DEATH(bf.Backward(ws, dy, dx), "backward without cache");
}

TEST(FailureInjection, CirculantBackwardPastTheCachedBatchDies) {
  for (const std::size_t n : {std::size_t{1024}, std::size_t{16}}) {
    Rng rng(5);
    nn::CirculantLayer layer(n, rng);
    Matrix y;
    layer.Forward(Matrix::RandomNormal(2, n, rng), y, /*train=*/true);
    const Matrix dy = Matrix::RandomNormal(3, n, rng);
    EXPECT_DEATH(layer.Backward(dy, nullptr), "backward without cache")
        << "n=" << n;
  }
}

TEST(FailureInjection, StatusOrTakeOnErrorDies) {
  StatusOr<int> err(Status::OutOfMemory("boom"));
  EXPECT_FALSE(err.ok());
  EXPECT_DEATH(err.value(), "boom");
}

TEST(FailureInjection, UnknownCodeletLookupDies) {
  EXPECT_DEATH(CodeletRegistry::Get().Lookup("DoesNotExist"),
               "unknown codelet");
}

TEST(FailureInjection, OversubscribedTileReportsFullestTile) {
  IpuArch tiny = Gc200();
  tiny.tile_memory_bytes = 2048;
  Graph g(tiny);
  Tensor x = g.addVariable("x", 4096);
  g.setTileMapping(x, 7);
  auto exe = Compile(g, Program::Sequence({}));
  ASSERT_FALSE(exe.ok());
  EXPECT_NE(exe.status().message().find("tile memory exceeded"),
            std::string::npos);
}

}  // namespace
}  // namespace repro
