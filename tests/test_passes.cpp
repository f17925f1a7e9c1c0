// The compiler pass pipeline: golden ledger accounting per flag combination,
// compute-set fusion legality, liveness-driven variable reuse, orphaned
// compute sets, and the determinism contract (pass output never depends on
// host thread count).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ipusim/codelet.h"
#include "ipusim/compiler.h"
#include "ipusim/passes/pass.h"
#include "ipusim/profiler.h"
#include "ipusim/session.h"
#include "util/parallel.h"

namespace repro::ipu {
namespace {

constexpr std::size_t kN = 64;

VertexId AddUnary(Graph& g, ComputeSetId cs, const Tensor& in,
                  const Tensor& out, std::size_t tile) {
  VertexId v = g.addVertex(cs, codelets::kRelu, tile);
  g.connect(v, "x", in);
  g.connect(v, "y", out, true);
  return v;
}

// A butterfly-style staging chain: v0 -> v1 -> v2 -> v3 through three
// dependent compute sets on tile 0 (each stage reads what the previous one
// wrote, so fusion must refuse), plus an untouched variable w on tile 1.
// Lifetimes: v0 [0,0], v1 [0,1], v2 [1,2], v3 [2,inf) -- the liveness pass
// packs {v0,v2} and {v1,v3} onto two ping-pong slots.
struct Chain {
  Tensor v0, v1, v2, v3, w;
  Program prog;
};

Chain BuildChain(Graph& g) {
  Chain c;
  c.v0 = g.addVariable("v0", kN);
  c.v1 = g.addVariable("v1", kN);
  c.v2 = g.addVariable("v2", kN);
  c.v3 = g.addVariable("v3", kN);
  for (const Tensor* t : {&c.v0, &c.v1, &c.v2, &c.v3}) {
    g.setTileMapping(*t, 0);
  }
  c.w = g.addVariable("w", kN);
  g.setTileMapping(c.w, 1);
  std::vector<Program> steps;
  const Tensor* stages[] = {&c.v0, &c.v1, &c.v2, &c.v3};
  for (int s = 0; s < 3; ++s) {
    ComputeSetId cs = g.addComputeSet("stage" + std::to_string(s));
    AddUnary(g, cs, *stages[s], *stages[s + 1], 0);
    steps.push_back(Program::Execute(cs));
  }
  c.prog = Program::Sequence(std::move(steps));
  return c;
}

Executable CompileChain(Graph& g, bool fuse, bool reuse) {
  Chain c = BuildChain(g);
  auto exe = Compile(g, c.prog,
                     CompileOptions{.fuse_compute_sets = fuse,
                                    .reuse_variable_memory = reuse});
  EXPECT_TRUE(exe.ok()) << exe.status().message();
  return std::move(exe.value());
}

TEST(PassPipeline, GoldenLedgerPerFlagCombination) {
  for (bool fuse : {false, true}) {
    Graph g_off(Gc200()), g_on(Gc200());
    const Executable off = CompileChain(g_off, fuse, false);
    const Executable on = CompileChain(g_on, fuse, true);

    // The dependent chain can never fuse: 3 compute sets in every combo.
    EXPECT_EQ(off.stats.num_compute_sets, 3u);
    EXPECT_EQ(on.stats.num_compute_sets, 3u);

    // Without reuse all five variables are charged; with reuse the four
    // staging tensors share two ping-pong slots (w keeps its own).
    EXPECT_EQ(off.stats.bytesFor(MemCategory::kVariables),
              5 * kN * sizeof(float));
    EXPECT_EQ(on.stats.bytesFor(MemCategory::kVariables),
              3 * kN * sizeof(float));
    EXPECT_EQ(off.tiles[0][MemCategory::kVariables], 4 * kN * sizeof(float));
    EXPECT_EQ(on.tiles[0][MemCategory::kVariables], 2 * kN * sizeof(float));
    EXPECT_EQ(on.tiles[1][MemCategory::kVariables], kN * sizeof(float));

    // Reuse is accounting-only: every other category is untouched.
    for (MemCategory cat :
         {MemCategory::kVertexState, MemCategory::kVertexCode,
          MemCategory::kEdgePointers, MemCategory::kExchangeBuffers,
          MemCategory::kControlCode}) {
      EXPECT_EQ(off.stats.bytesFor(cat), on.stats.bytesFor(cat))
          << MemCategoryName(cat);
    }
    EXPECT_LT(on.stats.max_tile_bytes, off.stats.max_tile_bytes);

    // The liveness report records exactly the two collapsed staging tensors.
    bool found = false;
    for (const PassReport& p : on.stats.pass_reports) {
      if (p.pass != "reuse-variable-memory") continue;
      found = true;
      EXPECT_EQ(p.objects_before, 5u);
      EXPECT_EQ(p.objects_after, 3u);
      EXPECT_EQ(p.bytes_saved, 2 * kN * sizeof(float));
    }
    EXPECT_TRUE(found);
  }
}

TEST(PassPipeline, ReportsFollowEnabledPasses) {
  Graph g(Gc200());
  const Executable exe = CompileChain(g, true, true);
  std::vector<std::string> names;
  for (const PassReport& p : exe.stats.pass_reports) names.push_back(p.pass);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "validate", "fuse-compute-sets",
                       "reuse-variable-memory", "plan-exchange",
                       "build-ledger", "specialize-kernels"}));
  EXPECT_NE(exe.stats.ToJson().find("\"passes\": ["), std::string::npos);

  Graph g2(Gc200());
  const Executable plain = CompileChain(g2, false, false);
  names.clear();
  for (const PassReport& p : plain.stats.pass_reports) names.push_back(p.pass);
  EXPECT_EQ(names, (std::vector<std::string>{"validate", "plan-exchange",
                                             "build-ledger",
                                             "specialize-kernels"}));
}

// Two adjacent Execute steps whose vertices touch disjoint outputs (both
// read the same input, which is legal) must merge into one compute set.
TEST(FusionPass, MergesDisjointAdjacentExecutes) {
  auto build = [](Session& session) {
    Graph& g = session.graph();
    Tensor s = g.addVariable("s", kN);
    Tensor da = g.addVariable("da", kN);
    Tensor db = g.addVariable("db", kN);
    for (const Tensor* t : {&s, &da, &db}) g.setTileMapping(*t, 0);
    ComputeSetId a = g.addComputeSet("a");
    ComputeSetId b = g.addComputeSet("b");
    AddUnary(g, a, s, da, 0);
    AddUnary(g, b, s, db, 0);
    EXPECT_TRUE(session
                    .compile(Program::Sequence(
                        {Program::Execute(a), Program::Execute(b)}))
                    .ok());
    std::vector<float> in(kN);
    for (std::size_t i = 0; i < kN; ++i) in[i] = 0.25f * i - 7.0f;
    session.writeTensor(s, in);
    session.run();
    std::vector<float> out(2 * kN);
    session.readTensor(da, std::span<float>(out).first(kN));
    session.readTensor(db, std::span<float>(out).last(kN));
    return out;
  };

  Session fused(Gc200(), SessionOptions{.fuse_compute_sets = true});
  Session split(Gc200(), SessionOptions{.fuse_compute_sets = false});
  const std::vector<float> fused_out = build(fused);
  const std::vector<float> split_out = build(split);

  EXPECT_EQ(fused.counts().compute_sets, 1u);
  EXPECT_EQ(split.counts().compute_sets, 2u);

  // The merged entry is appended after the two graph compute sets.
  const Executable& exe = fused.executable();
  ASSERT_EQ(exe.lowered_cs.size(), 3u);
  EXPECT_EQ(exe.lowered_cs[2].name, "fused(a+b)");
  EXPECT_EQ(exe.lowered_cs[2].vertices.size(), 2u);

  // One fewer compute set on the tile: exactly one control-code stride.
  EXPECT_EQ(split.executable().stats.bytesFor(MemCategory::kControlCode) -
                exe.stats.bytesFor(MemCategory::kControlCode),
            kControlBytesPerCs);

  // Fusion drops one superstep's sync but never changes the data.
  EXPECT_LT(fused.run().sync_cycles, split.run().sync_cycles);
  ASSERT_EQ(fused_out.size(), split_out.size());
  EXPECT_EQ(std::memcmp(fused_out.data(), split_out.data(),
                        fused_out.size() * sizeof(float)),
            0);
}

TEST(FusionPass, RefusesDependentExecutes) {
  // cs1 reads what cs0 wrote: merging them would break BSP disjointness.
  Graph g(Gc200());
  Tensor x = g.addVariable("x", kN);
  Tensor y = g.addVariable("y", kN);
  g.setTileMapping(x, 0);
  g.setTileMapping(y, 0);
  ComputeSetId a = g.addComputeSet("a");
  ComputeSetId b = g.addComputeSet("b");
  AddUnary(g, a, x, y, 0);
  AddUnary(g, b, y, x, 0);
  auto exe = Compile(g, Program::Sequence(
                            {Program::Execute(a), Program::Execute(b)}),
                     CompileOptions{.fuse_compute_sets = true});
  ASSERT_TRUE(exe.ok()) << exe.status().message();
  EXPECT_EQ(exe.value().stats.num_compute_sets, 2u);
  EXPECT_EQ(exe.value().lowered_cs.size(), 2u);
}

// A compute set the program never executes must not be charged: no vertex
// state, no control code, no exchange plan. (The seed compiler accounted
// every graph compute set, reachable or not.)
TEST(PassPipeline, OrphanedComputeSetCostsNothing) {
  auto build = [](Graph& g, bool with_orphan) {
    Tensor in = g.addVariable("in", kN);
    Tensor out = g.addVariable("out", kN);
    g.setTileMapping(in, 0);
    g.setTileMapping(out, 1);
    ComputeSetId used = g.addComputeSet("used");
    AddUnary(g, used, in, out, 1);
    if (with_orphan) {
      // Cross-tile edges that would cost exchange + state if accounted.
      ComputeSetId orphan = g.addComputeSet("orphan");
      AddUnary(g, orphan, in, out, 2);
    }
    return Program::Execute(used);
  };
  Graph plain(Gc200()), orphaned(Gc200());
  Program p1 = build(plain, false);
  Program p2 = build(orphaned, true);
  auto e1 = Compile(plain, p1);
  auto e2 = Compile(orphaned, p2);
  ASSERT_TRUE(e1.ok() && e2.ok());

  EXPECT_EQ(e2.value().stats.num_compute_sets, 1u);
  EXPECT_EQ(e1.value().stats.total_bytes, e2.value().stats.total_bytes);
  EXPECT_EQ(e1.value().stats.max_tile_bytes, e2.value().stats.max_tile_bytes);
  for (std::size_t c = 0; c < kNumMemCategories; ++c) {
    EXPECT_EQ(e1.value().stats.category_bytes[c],
              e2.value().stats.category_bytes[c])
        << MemCategoryName(static_cast<MemCategory>(c));
  }
  // The orphan's exchange plan entry exists (indexed by lowered id) but is
  // empty, and its tile stays completely unused.
  ASSERT_EQ(e2.value().cs_exchange.size(), 2u);
  EXPECT_EQ(e2.value().cs_exchange[1].total_bytes, 0u);
  EXPECT_EQ(e2.value().cs_exchange[1].max_tile_incoming, 0u);
  EXPECT_EQ(e2.value().tiles[2].total(), 0u);
}

// Pass output is part of the determinism contract: identical graphs compile
// to identical executables regardless of host thread count, and variable
// reuse never changes what the engine computes.
TEST(PassPipeline, OutputIdenticalAcrossHostThreads) {
  struct Result {
    std::string stats_json;
    std::vector<TileLedger> tiles;
    std::vector<LoweredComputeSet> lowered;
    std::vector<float> bits;
    RunReport report;
  };
  auto run_with = [](std::size_t host_threads) {
    SetParallelWorkers(host_threads);
    Session session(Gc200(), SessionOptions{.host_threads = host_threads});
    Graph& g = session.graph();
    Chain c = BuildChain(g);
    EXPECT_TRUE(session.compile(c.prog).ok());
    std::vector<float> in(kN);
    for (std::size_t i = 0; i < kN; ++i) in[i] = 0.5f * i - 13.0f;
    session.writeTensor(c.v0, in);
    Result r;
    r.report = session.run();
    r.bits.resize(kN);
    session.readTensor(c.v3, r.bits);
    r.stats_json = session.executable().stats.ToJson();
    r.tiles = session.executable().tiles;
    r.lowered = session.executable().lowered_cs;
    SetParallelWorkers(0);
    return r;
  };
  const Result t1 = run_with(1);
  const Result t8 = run_with(8);

  // Wall-clock (PassReport::seconds, host_seconds) is the only permitted
  // difference; compare everything else field by field.
  ASSERT_EQ(t1.tiles.size(), t8.tiles.size());
  for (std::size_t t = 0; t < t1.tiles.size(); ++t) {
    EXPECT_EQ(t1.tiles[t].bytes, t8.tiles[t].bytes);
  }
  ASSERT_EQ(t1.lowered.size(), t8.lowered.size());
  for (std::size_t cs = 0; cs < t1.lowered.size(); ++cs) {
    EXPECT_EQ(t1.lowered[cs].name, t8.lowered[cs].name);
    EXPECT_EQ(t1.lowered[cs].vertices, t8.lowered[cs].vertices);
  }
  EXPECT_EQ(t1.report.total_cycles, t8.report.total_cycles);
  EXPECT_EQ(t1.report.bytes_exchanged, t8.report.bytes_exchanged);
  EXPECT_EQ(std::memcmp(t1.bits.data(), t8.bits.data(),
                        t1.bits.size() * sizeof(float)),
            0);
  // The JSON differs only in the pass timings; strip the seconds fields.
  auto strip = [](std::string s) {
    for (std::size_t at = s.find("\"seconds\""); at != std::string::npos;
         at = s.find("\"seconds\"", at + 1)) {
      const std::size_t end = s.find_first_of(",}", at);
      s.erase(at, end - at);
    }
    return s;
  };
  EXPECT_EQ(strip(t1.stats_json), strip(t8.stats_json));
}

TEST(PassPipeline, ReuseNeverChangesEngineResults) {
  auto run_with = [](bool reuse, std::size_t* max_tile, RunReport* report) {
    Session session(Gc200(),
                    SessionOptions{.reuse_variable_memory = reuse});
    Graph& g = session.graph();
    Chain c = BuildChain(g);
    EXPECT_TRUE(session.compile(c.prog).ok());
    std::vector<float> in(kN);
    for (std::size_t i = 0; i < kN; ++i) in[i] = 1.5f * i - 40.0f;
    session.writeTensor(c.v0, in);
    *report = session.run();
    *max_tile = session.counts().max_tile_bytes;
    std::vector<float> out(kN);
    session.readTensor(c.v3, out);
    return out;
  };
  std::size_t tile_on = 0, tile_off = 0;
  RunReport r_on, r_off;
  const std::vector<float> on = run_with(true, &tile_on, &r_on);
  const std::vector<float> off = run_with(false, &tile_off, &r_off);
  EXPECT_EQ(std::memcmp(on.data(), off.data(), on.size() * sizeof(float)), 0);
  EXPECT_EQ(r_on.total_cycles, r_off.total_cycles);
  EXPECT_EQ(r_on.compute_cycles, r_off.compute_cycles);
  EXPECT_EQ(r_on.exchange_cycles, r_off.exchange_cycles);
  EXPECT_EQ(r_on.bytes_exchanged, r_off.bytes_exchanged);
  EXPECT_DOUBLE_EQ(r_on.flops, r_off.flops);
  EXPECT_LT(tile_on, tile_off);
}

}  // namespace
}  // namespace repro::ipu
