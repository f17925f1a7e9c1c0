// Program-tree semantics: sequences, nested repeats, copy bundles, host IO,
// and the profiler's report formatting.
#include <gtest/gtest.h>

#include "ipusim/codelet.h"
#include "ipusim/profiler.h"
#include "ipusim/session.h"

namespace repro::ipu {
namespace {

void MustCompile(Session& session, Program p) {
  Status s = session.compile(std::move(p));
  ASSERT_TRUE(s.ok()) << s.message();
}

TEST(Program, FactoryKinds) {
  Program s = Program::Sequence({});
  EXPECT_EQ(s.kind, Program::Kind::kSequence);
  Program r = Program::Repeat(3, Program::Sequence({}));
  EXPECT_EQ(r.kind, Program::Kind::kRepeat);
  EXPECT_EQ(r.repeat_count, 3u);
  EXPECT_EQ(r.children.size(), 1u);
}

TEST(Program, CopyRejectsSizeMismatch) {
  Graph g(Gc200());
  Tensor a = g.addVariable("a", 8);
  Tensor b = g.addVariable("b", 4);
  EXPECT_DEATH(Program::Copy(a, b), "size mismatch");
}

TEST(Program, CopyBundleRejectsNonCopy) {
  Graph g(Gc200());
  ComputeSetId cs = g.addComputeSet("cs");
  EXPECT_DEATH(Program::CopyBundle({Program::Execute(cs)}), "must be a Copy");
}

TEST(Program, AddOnlyOnSequence) {
  Graph g(Gc200());
  ComputeSetId cs = g.addComputeSet("cs");
  Program e = Program::Execute(cs);
  EXPECT_DEATH(e.add(Program::Execute(cs)), "non-sequence");
}

TEST(CopyBundleExec, OneSyncForManyCopies) {
  // N parallel copies in a bundle cost one exchange phase; as N sequential
  // copies they cost N.
  auto cycles = [](bool bundled) {
    Session e(Gc200(), SessionOptions{.execute = false});
    Graph& g = e.graph();
    std::vector<Program> copies;
    for (int i = 0; i < 16; ++i) {
      Tensor a = g.addVariable("a" + std::to_string(i), 256);
      Tensor b = g.addVariable("b" + std::to_string(i), 256);
      g.setTileMapping(a, 2 * i);
      g.setTileMapping(b, 2 * i + 1);
      copies.push_back(Program::Copy(a, b));
    }
    Program prog = bundled ? Program::CopyBundle(std::move(copies))
                           : Program::Sequence(std::move(copies));
    EXPECT_TRUE(e.compile(std::move(prog)).ok());
    return e.run().total_cycles;
  };
  const auto bundled = cycles(true);
  const auto serial = cycles(false);
  EXPECT_LT(bundled, serial / 8);
}

TEST(CopyBundleExec, MovesAllData) {
  Session e(Gc200());
  Graph& g = e.graph();
  Tensor a1 = g.addVariable("a1", 4);
  Tensor b1 = g.addVariable("b1", 4);
  Tensor a2 = g.addVariable("a2", 4);
  Tensor b2 = g.addVariable("b2", 4);
  for (const auto& [t, tile] : std::vector<std::pair<Tensor, std::size_t>>{
           {a1, 0}, {b1, 1}, {a2, 2}, {b2, 3}}) {
    g.setTileMapping(t, tile);
  }
  MustCompile(e, Program::CopyBundle({Program::Copy(a1, b1),
                                      Program::Copy(a2, b2)}));
  e.writeTensor(a1, std::vector<float>{1, 2, 3, 4});
  e.writeTensor(a2, std::vector<float>{5, 6, 7, 8});
  e.run();
  std::vector<float> out(4);
  e.readTensor(b1, out);
  EXPECT_EQ(out, (std::vector<float>{1, 2, 3, 4}));
  e.readTensor(b2, out);
  EXPECT_EQ(out, (std::vector<float>{5, 6, 7, 8}));
}

TEST(RepeatExec, NestedRepeatsMultiply) {
  Session e(Gc200(), SessionOptions{.execute = true, .fast_repeat = false});
  Graph& g = e.graph();
  Tensor x = g.addVariable("x", 2);
  g.setTileMapping(x, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kScaledAdd, 0);
  g.connect(v, "x", x);
  g.connect(v, "y", x, true);
  g.setInitialValue(v, "alpha", 1.0);  // doubles x per execution
  MustCompile(e,
              Program::Repeat(2, Program::Repeat(3, Program::Execute(cs))));
  e.writeTensor(x, std::vector<float>{1.0f, 1.0f});
  e.run();
  std::vector<float> out(2);
  e.readTensor(x, out);
  EXPECT_FLOAT_EQ(out[0], 64.0f);  // 2^(2*3)
}

TEST(RepeatExec, ZeroRepeatIsNoop) {
  Session e(Gc200());
  Graph& g = e.graph();
  Tensor x = g.addVariable("x", 2);
  g.setTileMapping(x, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kScaledAdd, 0);
  g.connect(v, "x", x);
  g.connect(v, "y", x, true);
  MustCompile(e, Program::Repeat(0, Program::Execute(cs)));
  EXPECT_EQ(e.run().total_cycles, 0u);
}

TEST(HostIo, ReadAndWriteBothCharged) {
  Session e(Gc200());
  Graph& g = e.graph();
  Tensor x = g.addVariable("x", 5 * 1000 * 1000 / 4);  // 5 MB
  g.mapLinearly(x);
  MustCompile(e, Program::Sequence({Program::HostWrite(x),
                                    Program::HostRead(x)}));
  // 2 x 5 MB at 20 GB/s = 0.5 ms.
  EXPECT_NEAR(e.run().host_seconds, 5e-4, 5e-5);
}

TEST(Profiler, GraphCountsToJsonHasEveryField) {
  Session e(Gc200());
  Graph& g = e.graph();
  Tensor x = g.addVariable("x", 1024);
  g.mapLinearly(x);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, codelets::kRelu, 0);
  g.connect(v, "x", x);
  g.connect(v, "y", x, true);
  MustCompile(e, Program::Execute(cs));
  const std::string j = e.counts().ToJson();
  for (const char* key :
       {"\"vertices\"", "\"edges\"", "\"variables\"", "\"compute_sets\"",
        "\"total_bytes\"", "\"free_bytes\"", "\"max_tile_bytes\"",
        "\"exchange_buffer_bytes\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
}

TEST(Arch, Gc2GenerationalContrast) {
  // The related-work generation: fewer, smaller tiles and no 16-MAC AMP.
  IpuArch gc2 = Gc2();
  IpuArch gc200 = Gc200();
  EXPECT_LT(gc2.num_tiles, gc200.num_tiles);
  EXPECT_LT(gc2.total_memory_bytes(), gc200.total_memory_bytes() / 2);
  EXPECT_LT(gc2.peak_fp32_flops(), gc200.peak_fp32_flops());
}

}  // namespace
}  // namespace repro::ipu
