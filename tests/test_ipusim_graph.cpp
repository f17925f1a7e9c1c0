#include <gtest/gtest.h>

#include "ipusim/compiler.h"
#include "ipusim/graph.h"
#include "ipusim/program.h"

namespace repro::ipu {
namespace {

TEST(Arch, Gc200DerivedQuantities) {
  IpuArch a = Gc200();
  // Table 1: ~900 MB on-chip, 62.5 TFLOP/s FP32 peak.
  EXPECT_NEAR(static_cast<double>(a.total_memory_bytes()) / 1e6, 940.0, 25.0);
  EXPECT_NEAR(a.peak_fp32_flops() / 1e12, 62.6, 0.5);
}

TEST(Graph, VariableAndSlicing) {
  Graph g(Gc200());
  Tensor t = g.addVariable("x", 4, 8);
  EXPECT_EQ(t.numel, 32u);
  Tensor row = t.row(2);
  EXPECT_EQ(row.offset, 16u);
  EXPECT_EQ(row.numel, 8u);
  Tensor s = t.slice(5, 10);
  EXPECT_EQ(s.offset, 5u);
  EXPECT_EQ(s.numel, 10u);
  Tensor rr = t.rowRange(1, 2);
  EXPECT_EQ(rr.offset, 8u);
  EXPECT_EQ(rr.numel, 16u);
  EXPECT_EQ(rr.rows, 2u);
}

TEST(Graph, SliceOutOfRangeDies) {
  Graph g(Gc200());
  Tensor t = g.addVariable("x", 10);
  EXPECT_DEATH(t.slice(5, 6), "out of");
  EXPECT_DEATH(t.rowRange(0, 2), "rowRange");
}

TEST(Graph, MappingRejectsOverlap) {
  Graph g(Gc200());
  Tensor t = g.addVariable("x", 100);
  g.setTileMapping(t.slice(0, 50), 0);
  EXPECT_DEATH(g.setTileMapping(t.slice(40, 20), 1), "overlap");
}

TEST(Graph, TileOfElement) {
  Graph g(Gc200());
  Tensor t = g.addVariable("x", 100);
  g.setTileMapping(t.slice(0, 50), 3);
  g.setTileMapping(t.slice(50, 50), 7);
  EXPECT_EQ(g.tileOfElement(t, 0), 3u);
  EXPECT_EQ(g.tileOfElement(t, 49), 3u);
  EXPECT_EQ(g.tileOfElement(t, 50), 7u);
  EXPECT_EQ(g.tileOfElement(t, 99), 7u);
}

TEST(Graph, MapLinearlySpreadsAndCovers) {
  Graph g(Gc200());
  Tensor t = g.addVariable("x", 1472 * 3);
  g.mapLinearly(t, 1);
  // Every element mapped, compile-level validation passes.
  Program p = Program::Sequence({});
  auto exe = Compile(g, p);
  ASSERT_TRUE(exe.ok()) << exe.status().message();
  // First chunk on tile 0, later chunks on later tiles.
  EXPECT_EQ(g.tileOfElement(t, 0), 0u);
  EXPECT_GT(g.tileOfElement(t, 1472 * 3 - 1), 0u);
}

TEST(Graph, MapLinearlyRespectsGrain) {
  Graph g(Gc200());
  Tensor t = g.addVariable("x", 64, 10);
  g.mapLinearly(t, 10);  // row granularity
  for (std::size_t r = 0; r < 64; ++r) {
    // all elements of a row on one tile
    const std::size_t tile = g.tileOfElement(t, r * 10);
    EXPECT_EQ(g.tileOfElement(t, r * 10 + 9), tile);
  }
}

TEST(Graph, VerticesAndEdges) {
  Graph g(Gc200());
  Tensor t = g.addVariable("x", 16);
  g.setTileMapping(t, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, "Relu", 0);
  g.connect(v, "x", t.slice(0, 8));
  g.connect(v, "y", t.slice(8, 8), true);
  EXPECT_EQ(g.numEdges(), 2u);
  EXPECT_EQ(g.verticesInCs(cs).size(), 1u);
  EXPECT_EQ(g.vertices()[v].edges[1].is_output, true);
}

TEST(Compile, RejectsUnmappedVariable) {
  Graph g(Gc200());
  Tensor t = g.addVariable("x", 10);
  g.setTileMapping(t.slice(0, 5), 0);  // second half unmapped
  auto exe = Compile(g, Program::Sequence({}));
  EXPECT_FALSE(exe.ok());
  EXPECT_EQ(exe.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Compile, RejectsUnknownCodelet) {
  Graph g(Gc200());
  Tensor t = g.addVariable("x", 4);
  g.setTileMapping(t, 0);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, "NoSuchVertex", 0);
  g.connect(v, "x", t);
  auto exe = Compile(g, Program::Execute(cs));
  EXPECT_FALSE(exe.ok());
}

TEST(Compile, MemoryLedgerCountsVariables) {
  Graph g(Gc200());
  Tensor t = g.addVariable("x", 1000);
  g.setTileMapping(t, 5);
  auto exe = Compile(g, Program::Sequence({}));
  ASSERT_TRUE(exe.ok());
  EXPECT_EQ(exe.value().tiles[5][MemCategory::kVariables], 4000u);
  EXPECT_EQ(exe.value().stats.bytesFor(MemCategory::kVariables), 4000u);
}

TEST(Compile, ExchangePlansChargeCrossTileEdges) {
  Graph g(Gc200());
  Tensor a = g.addVariable("a", 100);
  Tensor b = g.addVariable("b", 100);
  g.setTileMapping(a, 1);  // data on tile 1
  g.setTileMapping(b, 0);  // result on tile 0
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, "Relu", 0);  // vertex on tile 0
  g.connect(v, "x", a);
  g.connect(v, "y", b, true);
  auto exe = Compile(g, Program::Execute(cs));
  ASSERT_TRUE(exe.ok());
  // Input crosses 1 -> 0: 400 bytes inbound at tile 0; output is local.
  // Exchange buffers are charged at half the transfer (chunked streaming).
  EXPECT_EQ(exe.value().cs_exchange[cs].total_bytes, 400u);
  EXPECT_EQ(exe.value().cs_exchange[cs].max_tile_incoming, 400u);
  EXPECT_EQ(exe.value().tiles[0][MemCategory::kExchangeBuffers], 200u);
}

TEST(Compile, LocalEdgesAreFree) {
  Graph g(Gc200());
  Tensor a = g.addVariable("a", 100);
  g.setTileMapping(a, 2);
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, "Relu", 2);
  g.connect(v, "x", a);
  g.connect(v, "y", a, true);
  auto exe = Compile(g, Program::Execute(cs));
  ASSERT_TRUE(exe.ok());
  EXPECT_EQ(exe.value().cs_exchange[cs].total_bytes, 0u);
}

TEST(Compile, OutOfMemoryOnOversizedTile) {
  IpuArch small = Gc200();
  small.tile_memory_bytes = 1024;
  Graph g(small);
  Tensor t = g.addVariable("big", 10000);
  g.setTileMapping(t, 0);  // 40 KB on a 1 KiB tile
  auto exe = Compile(g, Program::Sequence({}));
  EXPECT_FALSE(exe.ok());
  EXPECT_EQ(exe.status().code(), ErrorCode::kOutOfMemory);
  // With oversubscription allowed it compiles and reports the overflow.
  auto exe2 = Compile(g, Program::Sequence({}),
                      CompileOptions{.allow_oversubscription = true});
  ASSERT_TRUE(exe2.ok());
  EXPECT_GT(exe2.value().stats.max_tile_bytes, small.tile_memory_bytes);
}

TEST(Compile, CountsComputeSetsReachableFromProgram) {
  Graph g(Gc200());
  Tensor t = g.addVariable("x", 4);
  g.setTileMapping(t, 0);
  ComputeSetId cs1 = g.addComputeSet("used");
  ComputeSetId cs2 = g.addComputeSet("unused");
  (void)cs2;
  VertexId v = g.addVertex(cs1, "Relu", 0);
  g.connect(v, "x", t);
  g.connect(v, "y", t, true);
  auto exe = Compile(
      g, Program::Sequence({Program::Execute(cs1),
                            Program::Repeat(3, Program::Execute(cs1))}));
  ASSERT_TRUE(exe.ok());
  EXPECT_EQ(exe.value().stats.num_compute_sets, 1u);
  EXPECT_EQ(exe.value().stats.num_edges, 2u);
  EXPECT_EQ(exe.value().stats.num_vertices, 1u);
}

TEST(ForEachMappedRangeTest, WalksIntervalsInOrder) {
  Graph g(Gc200());
  Tensor t = g.addVariable("x", 30);
  g.setTileMapping(t.slice(0, 10), 0);
  g.setTileMapping(t.slice(10, 10), 1);
  g.setTileMapping(t.slice(20, 10), 2);
  std::vector<std::size_t> tiles;
  ForEachMappedRange(g, t.slice(5, 20),
                     [&](std::size_t tile, std::size_t begin, std::size_t len) {
                       tiles.push_back(tile);
                       if (tile == 0) {
                         EXPECT_EQ(begin, 5u);
                         EXPECT_EQ(len, 5u);
                       }
                     });
  EXPECT_EQ(tiles, (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace repro::ipu
