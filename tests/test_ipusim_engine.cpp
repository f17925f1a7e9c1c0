#include <gtest/gtest.h>

#include "ipusim/codelet.h"
#include "ipusim/graph.h"
#include "ipusim/program.h"
#include "ipusim/session.h"

namespace repro::ipu {
namespace {

void MustCompile(Session& session, Program p) {
  Status s = session.compile(std::move(p));
  ASSERT_TRUE(s.ok()) << s.message();
}

TEST(Engine, ReluVertexComputes) {
  Session e(Gc200());
  Graph& g = e.graph();
  Tensor x = g.addVariable("x", 4);
  Tensor y = g.addVariable("y", 4);
  g.setTileMapping(x, 0);
  g.setTileMapping(y, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kRelu, 0);
  g.connect(v, "x", x);
  g.connect(v, "y", y, true);
  MustCompile(e, Program::Execute(cs));
  e.writeTensor(x, std::vector<float>{-1.0f, 2.0f, -3.0f, 4.0f});
  RunReport r = e.run();
  std::vector<float> out(4);
  e.readTensor(y, out);
  EXPECT_EQ(out, (std::vector<float>{0.0f, 2.0f, 0.0f, 4.0f}));
  EXPECT_GT(r.total_cycles, 0u);
}

TEST(Engine, ScalarGemmVertexComputes) {
  Session e(Gc200());
  Graph& g = e.graph();
  Tensor a = g.addVariable("a", 2 * 3);
  Tensor b = g.addVariable("b", 3 * 2);
  Tensor c = g.addVariable("c", 2 * 2);
  g.setTileMapping(a, 0);
  g.setTileMapping(b, 0);
  g.setTileMapping(c, 0);
  ComputeSetId cs = g.addComputeSet("mm");
  VertexId v = g.addVertex(cs, codelets::kScalarGemm, 0);
  g.connect(v, "a", a);
  g.connect(v, "b", b);
  g.connect(v, "out", c, true);
  g.setInitialValue(v, "m", 2);
  g.setInitialValue(v, "k", 3);
  g.setInitialValue(v, "n", 2);
  MustCompile(e, Program::Execute(cs));
  e.writeTensor(a, std::vector<float>{1, 2, 3, 4, 5, 6});
  e.writeTensor(b, std::vector<float>{7, 8, 9, 10, 11, 12});
  e.run();
  std::vector<float> out(4);
  e.readTensor(c, out);
  // [1 2 3; 4 5 6] * [7 8; 9 10; 11 12] = [58 64; 139 154]
  EXPECT_EQ(out, (std::vector<float>{58, 64, 139, 154}));
}

TEST(Engine, AmpGemmMatchesScalarGemmNumerically) {
  for (const char* codelet : {codelets::kScalarGemm, codelets::kAmpGemm}) {
    Session e(Gc200());
    Graph& g = e.graph();
    Tensor a = g.addVariable("a", 4 * 4);
    Tensor b = g.addVariable("b", 4 * 4);
    Tensor c = g.addVariable("c", 4 * 4);
    g.setTileMapping(a, 0);
    g.setTileMapping(b, 0);
    g.setTileMapping(c, 0);
    ComputeSetId cs = g.addComputeSet("mm");
    VertexId v = g.addVertex(cs, codelet, 0);
    g.connect(v, "a", a);
    g.connect(v, "b", b);
    g.connect(v, "out", c, true);
    g.setInitialValue(v, "m", 4);
    g.setInitialValue(v, "k", 4);
    g.setInitialValue(v, "n", 4);
    MustCompile(e, Program::Execute(cs));
    std::vector<float> av(16), bv(16);
    for (int i = 0; i < 16; ++i) {
      av[i] = static_cast<float>(i);
      bv[i] = static_cast<float>(16 - i);
    }
    e.writeTensor(a, av);
    e.writeTensor(b, bv);
    e.run();
    std::vector<float> out(16);
    e.readTensor(c, out);
    EXPECT_FLOAT_EQ(out[0], 0 * 16 + 1 * 12 + 2 * 8 + 3 * 4);
  }
}

TEST(Engine, AmpIsFasterThanScalarForSameWork) {
  auto cycles_for = [](const char* codelet) {
    Session e(Gc200(), SessionOptions{.execute = false});
    Graph& g = e.graph();
    Tensor a = g.addVariable("a", 64 * 64);
    Tensor b = g.addVariable("b", 64 * 64);
    Tensor c = g.addVariable("c", 64 * 64);
    g.setTileMapping(a, 0);
    g.setTileMapping(b, 0);
    g.setTileMapping(c, 0);
    ComputeSetId cs = g.addComputeSet("mm");
    VertexId v = g.addVertex(cs, codelet, 0);
    g.connect(v, "a", a);
    g.connect(v, "b", b);
    g.connect(v, "out", c, true);
    g.setInitialValue(v, "m", 64);
    g.setInitialValue(v, "k", 64);
    g.setInitialValue(v, "n", 64);
    EXPECT_TRUE(e.compile(Program::Execute(cs)).ok());
    return e.run().total_cycles;
  };
  // 16 MACs/cycle vs 1/5 MAC/cycle: ~80x.
  EXPECT_GT(cycles_for(codelets::kScalarGemm),
            40 * cycles_for(codelets::kAmpGemm));
}

TEST(Engine, ReduceAddSumsPartials) {
  Session e(Gc200());
  Graph& g = e.graph();
  Tensor p = g.addVariable("p", 3, 4);
  Tensor out = g.addVariable("o", 4);
  for (int i = 0; i < 3; ++i) g.setTileMapping(p.row(i), i);
  g.setTileMapping(out, 0);
  ComputeSetId cs = g.addComputeSet("red");
  VertexId v = g.addVertex(cs, codelets::kReduceAdd, 0);
  for (int i = 0; i < 3; ++i) g.connect(v, "partials", p.row(i));
  g.connect(v, "out", out, true);
  MustCompile(e, Program::Execute(cs));
  e.writeTensor(p, std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40, 100, 200, 300, 400});
  RunReport r = e.run();
  std::vector<float> o(4);
  e.readTensor(out, o);
  EXPECT_EQ(o, (std::vector<float>{111, 222, 333, 444}));
  // Two of three partials cross tiles.
  EXPECT_EQ(r.bytes_exchanged, 2u * 16);
}

TEST(Engine, CopyMovesDataAndChargesExchange) {
  Session e(Gc200());
  Graph& g = e.graph();
  Tensor a = g.addVariable("a", 64);
  Tensor b = g.addVariable("b", 64);
  g.setTileMapping(a, 0);
  g.setTileMapping(b, 9);
  MustCompile(e, Program::Copy(a, b));
  std::vector<float> av(64);
  for (int i = 0; i < 64; ++i) av[i] = static_cast<float>(i);
  e.writeTensor(a, av);
  RunReport r = e.run();
  std::vector<float> bv(64);
  e.readTensor(b, bv);
  EXPECT_EQ(av, bv);
  EXPECT_EQ(r.bytes_exchanged, 256u);
  EXPECT_GT(r.exchange_cycles, 0u);
}

TEST(Engine, LocalCopyIsFree) {
  Session e(Gc200());
  Graph& g = e.graph();
  Tensor a = g.addVariable("a", 16);
  Tensor b = g.addVariable("b", 16);
  g.setTileMapping(a, 4);
  g.setTileMapping(b, 4);
  MustCompile(e, Program::Copy(a, b));
  RunReport r = e.run();
  EXPECT_EQ(r.bytes_exchanged, 0u);
  EXPECT_EQ(r.exchange_cycles, 0u);
}

// Observation 1: exchange cost depends on size, not distance.
TEST(Engine, ExchangeIsDistanceIndependent) {
  auto copy_cycles = [](std::size_t dst_tile) {
    Session e(Gc200());
    Graph& g = e.graph();
    Tensor a = g.addVariable("a", 1024);
    Tensor b = g.addVariable("b", 1024);
    g.setTileMapping(a, 0);
    g.setTileMapping(b, dst_tile);
    EXPECT_TRUE(e.compile(Program::Copy(a, b)).ok());
    return e.run().total_cycles;
  };
  EXPECT_EQ(copy_cycles(1), copy_cycles(644));  // paper Fig. 3 tile pair
  EXPECT_EQ(copy_cycles(1), copy_cycles(1471));
}

TEST(Engine, ExchangeScalesWithSize) {
  auto copy_cycles = [](std::size_t n) {
    Session e(Gc200());
    Graph& g = e.graph();
    Tensor a = g.addVariable("a", n);
    Tensor b = g.addVariable("b", n);
    g.setTileMapping(a, 0);
    g.setTileMapping(b, 1);
    EXPECT_TRUE(e.compile(Program::Copy(a, b)).ok());
    return e.run().total_cycles;
  };
  EXPECT_GT(copy_cycles(65536), 4 * copy_cycles(1024));
}

TEST(Engine, RepeatFastPathMatchesFullExecutionCycles) {
  auto run_cycles = [](bool fast) {
    Session e(Gc200(), SessionOptions{.execute = true, .fast_repeat = fast});
    Graph& g = e.graph();
    Tensor x = g.addVariable("x", 128);
    g.setTileMapping(x, 0);
    ComputeSetId cs = g.addComputeSet("cs");
    VertexId v = g.addVertex(cs, codelets::kScaledAdd, 0);
    g.connect(v, "x", x);
    g.connect(v, "y", x, true);
    g.setInitialValue(v, "alpha", 0.5);
    EXPECT_TRUE(e.compile(Program::Repeat(10, Program::Execute(cs))).ok());
    return e.run().total_cycles;
  };
  EXPECT_EQ(run_cycles(true), run_cycles(false));
}

TEST(Engine, RepeatSlowPathRepeatsNumerics) {
  Session e(Gc200(), SessionOptions{.execute = true, .fast_repeat = false});
  Graph& g = e.graph();
  Tensor x = g.addVariable("x", 2);
  g.setTileMapping(x, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kScaledAdd, 0);
  g.connect(v, "x", x);
  g.connect(v, "y", x, true);  // y += 1.0 * y => doubles each run
  g.setInitialValue(v, "alpha", 1.0);
  MustCompile(e, Program::Repeat(3, Program::Execute(cs)));
  e.writeTensor(x, std::vector<float>{1.0f, 2.0f});
  e.run();
  std::vector<float> out(2);
  e.readTensor(x, out);
  EXPECT_EQ(out, (std::vector<float>{8.0f, 16.0f}));
}

TEST(Engine, HostTransfersUseStreamingBandwidth) {
  Session e(Gc200());
  Graph& g = e.graph();
  Tensor x = g.addVariable("x", 20 * 1000 * 1000 / 4);  // 20 MB
  g.mapLinearly(x);
  MustCompile(e, Program::HostWrite(x));
  RunReport r = e.run();
  // 20 MB at 20 GB/s = 1 ms.
  EXPECT_NEAR(r.host_seconds, 1e-3, 1e-4);
}

TEST(Engine, TimingOnlySkipsStorage) {
  Session e(Gc200(), SessionOptions{.execute = false});
  Graph& g = e.graph();
  Tensor x = g.addVariable("x", 1024);
  g.mapLinearly(x);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kRelu, 0);
  g.connect(v, "x", x);
  g.connect(v, "y", x, true);
  MustCompile(e, Program::Execute(cs));
  RunReport r = e.run();
  EXPECT_GT(r.total_cycles, 0u);
  EXPECT_GT(r.flops, 0.0);
  std::vector<float> buf(1024);
  EXPECT_DEATH(e.readTensor(x, buf), "timing-only");
}

TEST(Engine, FlopAccounting) {
  Session e(Gc200());
  Graph& g = e.graph();
  Tensor a = g.addVariable("a", 8 * 8);
  Tensor b = g.addVariable("b", 8 * 8);
  Tensor c = g.addVariable("c", 8 * 8);
  g.setTileMapping(a, 0);
  g.setTileMapping(b, 0);
  g.setTileMapping(c, 0);
  ComputeSetId cs = g.addComputeSet("mm");
  VertexId v = g.addVertex(cs, codelets::kScalarGemm, 0);
  g.connect(v, "a", a);
  g.connect(v, "b", b);
  g.connect(v, "out", c, true);
  g.setInitialValue(v, "m", 8);
  g.setInitialValue(v, "k", 8);
  g.setInitialValue(v, "n", 8);
  MustCompile(e, Program::Execute(cs));
  EXPECT_DOUBLE_EQ(e.run().flops, 2.0 * 8 * 8 * 8);
}

TEST(RunReport, ToJsonHasEveryField) {
  RunReport r;
  r.total_cycles = 10;
  r.compute_cycles = 4;
  r.exchange_cycles = 3;
  r.sync_cycles = 3;
  r.host_seconds = 0.5;
  r.flops = 128.0;
  r.bytes_exchanged = 64;
  const std::string j = r.ToJson();
  EXPECT_NE(j.find("\"total_cycles\": 10"), std::string::npos);
  EXPECT_NE(j.find("\"compute_cycles\": 4"), std::string::npos);
  EXPECT_NE(j.find("\"exchange_cycles\": 3"), std::string::npos);
  EXPECT_NE(j.find("\"sync_cycles\": 3"), std::string::npos);
  EXPECT_NE(j.find("\"host_seconds\": 0.5"), std::string::npos);
  EXPECT_NE(j.find("\"flops\": 128"), std::string::npos);
  EXPECT_NE(j.find("\"bytes_exchanged\": 64"), std::string::npos);
}

}  // namespace
}  // namespace repro::ipu
