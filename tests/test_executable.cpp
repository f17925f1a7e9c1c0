// ipu::Executable artifact contract: deterministic bytes (host wall clock
// and host thread count excluded), save -> load round trips that reproduce
// run reports, fig5-style ledgers, and serving logits bit for bit, clean
// Status rejection of damaged or version-mismatched files, and the
// content-addressed ExeCache over it all.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "ipusim/codelet.h"
#include "ipusim/exe_cache.h"
#include "ipusim/executable.h"
#include "ipusim/matmul.h"
#include "ipusim/profiler.h"
#include "ipusim/session.h"
#include "nn/export.h"
#include "nn/model.h"
#include "cluster/shard_plan.h"
#include "core/device_time.h"
#include "core/ipu_lowering.h"
#include "serve/model_plan.h"
#include "util/parallel.h"

namespace repro::ipu {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// A compiled session around a mid-sized matmul: multi-compute-set program,
// host IO on both ends, nontrivial exchange -- the full artifact surface.
struct CompiledMatMul {
  std::unique_ptr<Session> session;
  MatMulPlan plan;
};

CompiledMatMul MakeMatMul(std::size_t host_threads = 0) {
  CompiledMatMul c;
  c.session = std::make_unique<Session>(
      Gc200(), SessionOptions{.host_threads = host_threads});
  auto plan = BuildMatMul(c.session->graph(), 64, 128, 32, MatMulImpl::kPoplin);
  EXPECT_TRUE(plan.ok()) << plan.status().message();
  c.plan = plan.take();
  Status s = c.session->compile(c.plan.prog);
  EXPECT_TRUE(s.ok()) << s.message();
  return c;
}

TEST(ExecutableBytes, SerializeDeserializeSerializeIsIdentity) {
  CompiledMatMul c = MakeMatMul();
  const std::vector<std::uint8_t> bytes = c.session->executable().Serialize();
  StatusOr<Executable> back = Executable::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back.value().Serialize(), bytes);
}

TEST(ExecutableBytes, TwoCompilesProduceIdenticalBytes) {
  // PassReport::seconds is real wall clock and differs between these two
  // compiles; the artifact bytes must not contain it (or any other
  // nondeterministic emission).
  CompiledMatMul a = MakeMatMul();
  CompiledMatMul b = MakeMatMul();
  EXPECT_EQ(a.session->executable().Serialize(),
            b.session->executable().Serialize());
  // The in-memory stats keep wall clock for reporting...
  // ...but a deserialized artifact reads it as exactly 0.
  StatusOr<Executable> loaded =
      Executable::Deserialize(a.session->executable().Serialize());
  ASSERT_TRUE(loaded.ok());
  ASSERT_FALSE(loaded.value().stats.pass_reports.empty());
  for (const PassReport& p : loaded.value().stats.pass_reports) {
    EXPECT_EQ(p.seconds, 0.0);
  }
}

TEST(ExecutableBytes, BitwiseIdenticalAcrossHostThreads) {
  SetParallelWorkers(1);
  CompiledMatMul t1 = MakeMatMul(1);
  SetParallelWorkers(8);
  CompiledMatMul t8 = MakeMatMul(8);
  SetParallelWorkers(0);
  EXPECT_EQ(t1.session->executable().Serialize(),
            t8.session->executable().Serialize());
}

TEST(ExecutableRoundTrip, SaveLoadReproducesRunReportAndTensorBits) {
  CompiledMatMul cold = MakeMatMul();
  const std::string path = TempPath("roundtrip.ipuexe");
  ASSERT_TRUE(cold.session->save(path).ok());

  // Fresh session, no graph built: the loaded artifact is self-contained.
  // Tensor handles are value offsets, so the cold session's handles address
  // the loaded snapshot directly.
  StatusOr<Executable> loaded = Executable::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  Session warm(Gc200());
  ASSERT_TRUE(
      warm.instantiate(std::make_shared<const Executable>(loaded.take())).ok());
  ASSERT_TRUE(warm.compiled());

  Rng rng(77);
  Matrix a = Matrix::RandomNormal(64, 128, rng);
  Matrix b = Matrix::RandomNormal(128, 32, rng);
  RunReport cold_r, warm_r;
  Matrix cold_c = RunMatMul(cold.plan, *cold.session, a, b, &cold_r);
  Matrix warm_c = RunMatMul(cold.plan, warm, a, b, &warm_r);

  EXPECT_EQ(std::memcmp(cold_c.data(), warm_c.data(),
                        cold_c.size() * sizeof(float)),
            0);
  EXPECT_EQ(cold_r.ToJson(), warm_r.ToJson());
}

TEST(ExecutableRoundTrip, LedgersAndCountsSurviveByteForByte) {
  // The fig5/fig7 quantities -- per-tile ledgers, graph counts, category
  // bytes -- must read identically off a loaded artifact.
  CompiledMatMul cold = MakeMatMul();
  const Executable& exe = cold.session->executable();
  StatusOr<Executable> loaded = Executable::Deserialize(exe.Serialize());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  EXPECT_EQ(CountsOf(exe).ToJson(), CountsOf(loaded.value()).ToJson());
  EXPECT_EQ(exe.stats.category_bytes, loaded.value().stats.category_bytes);
  ASSERT_EQ(exe.tiles.size(), loaded.value().tiles.size());
  for (std::size_t t = 0; t < exe.tiles.size(); ++t) {
    EXPECT_EQ(exe.tiles[t].bytes, loaded.value().tiles[t].bytes) << t;
  }
  ASSERT_EQ(exe.cs_exchange.size(), loaded.value().cs_exchange.size());
  for (std::size_t i = 0; i < exe.cs_exchange.size(); ++i) {
    EXPECT_EQ(exe.cs_exchange[i].total_bytes,
              loaded.value().cs_exchange[i].total_bytes);
    EXPECT_EQ(exe.cs_exchange[i].max_tile_incoming,
              loaded.value().cs_exchange[i].max_tile_incoming);
  }
}

TEST(ExecutableRoundTrip, ServingLogitsBitwiseIdenticalThroughDiskCache) {
  // The serving path: cold-compile a plan, and build the same plan in a
  // second cache instance that can only get the artifact from disk. Logits
  // must match bit for bit.
  core::ShlShape shape;
  shape.input = 64;
  shape.hidden = 64;
  shape.pixelfly = core::ScaledPixelflyConfig(64);
  Rng rng(7);
  nn::Sequential model = nn::BuildShl(core::Method::kButterfly, shape, rng);
  nn::ForwardSpec spec = nn::ExportForward(model);

  const std::string dir = TempPath("exe_cache_dir");
  std::filesystem::remove_all(dir);  // clean slate across test reruns
  serve::PlanOptions opts{.max_batch = 4};
  auto cold = serve::ModelPlan::Build(spec, Gc200(), opts);
  ASSERT_TRUE(cold.ok()) << cold.status().message();

  ExeCache writer(dir);
  opts.cache = &writer;
  ASSERT_TRUE(serve::ModelPlan::Build(spec, Gc200(), opts).ok());
  EXPECT_EQ(writer.stats().disk_stores, 1u);

  ExeCache reader(dir);  // fresh cache: memory empty, must load from disk
  opts.cache = &reader;
  auto warm = serve::ModelPlan::Build(spec, Gc200(), opts);
  ASSERT_TRUE(warm.ok()) << warm.status().message();
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().misses, 0u);

  Matrix inputs(3, 64);
  Rng drng(11);
  for (std::size_t i = 0; i < inputs.rows(); ++i) {
    for (std::size_t j = 0; j < inputs.cols(); ++j) {
      inputs(i, j) = float(drng.Uniform(-1.0, 1.0));
    }
  }
  auto cold_engine = cold.value()->MakeReplica();
  auto warm_engine = warm.value()->MakeReplica();
  Matrix cold_logits = cold.value()->RunBatch(*cold_engine, inputs);
  Matrix warm_logits = warm.value()->RunBatch(*warm_engine, inputs);
  ASSERT_EQ(cold_logits.rows(), warm_logits.rows());
  ASSERT_EQ(cold_logits.cols(), warm_logits.cols());
  EXPECT_EQ(std::memcmp(cold_logits.data(), warm_logits.data(),
                        cold_logits.size() * sizeof(float)),
            0);
  EXPECT_DOUBLE_EQ(cold.value()->batchSeconds(), warm.value()->batchSeconds());
}

TEST(ExecutableRejects, MissingShortAndCorruptFilesReturnCleanStatus) {
  EXPECT_FALSE(Executable::Load(TempPath("no_such_file.ipuexe")).ok());

  CompiledMatMul c = MakeMatMul();
  const std::vector<std::uint8_t> bytes = c.session->executable().Serialize();

  // Truncated at every interesting boundary: never a crash, always a status.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{11},
                          std::size_t{12}, bytes.size() / 2,
                          bytes.size() - 1}) {
    StatusOr<Executable> r = Executable::Deserialize(
        std::span<const std::uint8_t>(bytes.data(), cut));
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  }

  // Trailing garbage after a valid artifact.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0xab);
  EXPECT_FALSE(Executable::Deserialize(padded).ok());

  // Wrong magic.
  std::vector<std::uint8_t> not_ours = bytes;
  not_ours[0] = 'X';
  StatusOr<Executable> nm = Executable::Deserialize(not_ours);
  ASSERT_FALSE(nm.ok());
  EXPECT_NE(nm.status().message().find("not an ipu::Executable"),
            std::string::npos);

  // Mid-file corruption lands in raw IEEE-754 payload that would otherwise
  // parse as valid floats; the trailing checksum is what catches it.
  std::vector<std::uint8_t> corrupt = bytes;
  std::fill(corrupt.begin() + corrupt.size() / 2,
            corrupt.begin() + corrupt.size() / 2 + 8, 0xff);
  StatusOr<Executable> cr = Executable::Deserialize(corrupt);
  ASSERT_FALSE(cr.ok());
  EXPECT_NE(cr.status().message().find("checksum"), std::string::npos);

  // Short file on disk through Load().
  const std::string path = TempPath("short.ipuexe");
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size() / 3));
  EXPECT_FALSE(Executable::Load(path).ok());
}

TEST(ExecutableRejects, DirectoryPathReturnsCleanStatus) {
  // An ifstream opens a directory, and its tellg() is no file size.
  const std::string dir = TempPath("artifact_is_a_dir.ipuexe");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  StatusOr<Executable> r = Executable::Load(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

TEST(ExecutableRejects, VersionMismatchNamesBothVersions) {
  CompiledMatMul c = MakeMatMul();
  std::vector<std::uint8_t> bytes = c.session->executable().Serialize();
  // Version is the little-endian u32 right after the 8-byte magic.
  bytes[8] = 99;
  StatusOr<Executable> r = Executable::Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
  EXPECT_NE(r.status().message().find("99"), std::string::npos);
}

// The first step of `kind` in `p`, depth first.
Program* FindStep(Program& p, Program::Kind kind) {
  if (p.kind == kind) return &p;
  for (Program& c : p.children) {
    if (Program* found = FindStep(c, kind)) return found;
  }
  return nullptr;
}

// A 2-variable graph whose program moves tensors with every step kind that
// names a view: streams, host copies, a Copy, a CopyBundle and a Repeat.
Executable CompileMoves() {
  Session s(Gc200());
  Graph& g = s.graph();
  Tensor a = g.addVariable("a", 64);
  Tensor b = g.addVariable("b", 64);
  g.setTileMapping(a, 0);
  g.setTileMapping(b, 3);
  const Status st = s.compile(Program::Sequence(
      {Program::StreamIn(a), Program::Copy(a, b), Program::StreamOut(b),
       Program::HostWrite(a), Program::CopyBundle({Program::Copy(a, b)}),
       Program::Repeat(2, Program::Copy(b, a)), Program::HostRead(b)}));
  EXPECT_TRUE(st.ok()) << st.message();
  return s.executable();
}

TEST(ExecutableRejects, ProgramStepsTheEngineCannotRun) {
  // Mutate a decoded program and re-serialize, so the checksum is valid:
  // only Deserialize's step checks stand between the engine and a step that
  // reads or writes past the variable table or past a variable's elements.
  constexpr std::size_t kWrap = SIZE_MAX - 1;  // offset + 2 wraps to 0
  const std::vector<std::pair<const char*, std::function<void(Executable&)>>>
      mutations = {
          {"copy into a missing variable",
           [](Executable& exe) {
             FindStep(exe.program, Program::Kind::kCopy)->dst =
                 Tensor{5, std::size_t{1} << 20, 64, 1, 64};
           }},
          {"bundled copy past its source",
           [](Executable& exe) {
             FindStep(exe.program, Program::Kind::kCopyBundle)
                 ->children[0]
                 .src.offset = 32;
           }},
          {"host write whose end wraps",
           [&](Executable& exe) {
             Tensor& t = FindStep(exe.program, Program::Kind::kHostWrite)->dst;
             t.offset = kWrap;
             t.numel = 2;
           }},
          {"copy longer than its destination",
           [](Executable& exe) {
             Tensor& dst = FindStep(exe.program, Program::Kind::kCopy)->dst;
             dst.offset = 32;
             dst.numel = 32;
           }},
          {"bundle of a step that is no copy",
           [](Executable& exe) {
             FindStep(exe.program, Program::Kind::kCopyBundle)->children[0] =
                 Program::Sequence({});
           }},
          {"repeat without a body",
           [](Executable& exe) {
             FindStep(exe.program, Program::Kind::kRepeat)->children.clear();
           }},
          {"host read past its variable",
           [](Executable& exe) {
             FindStep(exe.program, Program::Kind::kHostRead)->src.numel = 65;
           }},
          {"stream in whose end wraps, descriptor too",
           [&](Executable& exe) {
             Tensor& t = FindStep(exe.program, Program::Kind::kStreamIn)->dst;
             t.offset = kWrap;
             t.numel = 2;
             for (HostStream& hs : exe.streams) {
               if (hs.dir == HostStream::Dir::kIn) hs.tensor = t;
             }
           }},
          {"stream out of a missing variable, descriptor too",
           [](Executable& exe) {
             Tensor& t = FindStep(exe.program, Program::Kind::kStreamOut)->src;
             t.var = 2;
             for (HostStream& hs : exe.streams) {
               if (hs.dir == HostStream::Dir::kOut) hs.tensor = t;
             }
           }},
      };
  for (const auto& [name, mutate] : mutations) {
    Executable exe = CompileMoves();
    ASSERT_TRUE(Executable::Deserialize(exe.Serialize()).ok()) << name;
    mutate(exe);
    StatusOr<Executable> back = Executable::Deserialize(exe.Serialize());
    EXPECT_FALSE(back.ok()) << name;
    EXPECT_EQ(back.status().code(), ErrorCode::kInvalidArgument) << name;
  }
}

TEST(ExecutableRejects, StreamDescriptorWhoseEndWraps) {
  // A descriptor no step uses still describes a FIFO the engine keeps; its
  // offset + numel must not wrap past the bound check.
  Executable exe = CompileMoves();
  exe.streams.push_back(
      HostStream{HostStream::Dir::kIn, Tensor{0, SIZE_MAX - 1, 2, 1, 2}});
  StatusOr<Executable> back = Executable::Deserialize(exe.Serialize());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), ErrorCode::kInvalidArgument);
}

// Appends the `width` low bytes of `v`, little-endian: the artifact's words.
void PutLe(std::vector<std::uint8_t>& out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

// Little-endian bytes of an artifact's serialized Tensor.
std::vector<std::uint8_t> TensorBytes(const Tensor& t) {
  std::vector<std::uint8_t> out;
  PutLe(out, t.var, 4);
  PutLe(out, t.offset, 8);
  PutLe(out, t.numel, 8);
  PutLe(out, t.rows, 8);
  PutLe(out, t.cols, 8);
  return out;
}

// Appends the bytes of a serialized program step, its children after it.
void PutProgramBytes(std::vector<std::uint8_t>& out, const Program& p) {
  PutLe(out, static_cast<std::uint8_t>(p.kind), 1);
  PutLe(out, p.cs, 4);
  for (const Tensor& t : {p.src, p.dst}) {
    const std::vector<std::uint8_t> view = TensorBytes(t);
    out.insert(out.end(), view.begin(), view.end());
  }
  PutLe(out, p.repeat_count, 8);
  PutLe(out, p.children.size(), 8);
  for (const Program& c : p.children) PutProgramBytes(out, c);
}

// Reseals an edited artifact: its last 8 bytes are the FNV-1a 64 of
// everything before them.
void Reseal(std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  for (int i = 0; i < 8; ++i) bytes[bytes.size() - 8 + i] = (h >> (8 * i)) & 0xff;
}

// One BiasRelu vertex: its first edge is a 4-element bias, the others a
// 4 x 2 input, run by a one-step Sequence.
Executable CompileBiasRelu() {
  Session s(Gc200());
  Graph& g = s.graph();
  Tensor bias = g.addVariable("bias", 4);
  Tensor x = g.addVariable("x", 4, 2);
  g.setTileMapping(bias, 0);
  g.setTileMapping(x, 0);
  ComputeSetId cs = g.addComputeSet("bias_relu");
  VertexId v = g.addVertex(cs, codelets::kBiasRelu, 0);
  g.connect(v, "bias", bias);
  g.connect(v, "x", x);
  g.connect(v, "y", x, true);
  g.setInitialValue(v, "batch", 2.0);
  g.setInitialValue(v, "relu", 1.0);
  EXPECT_TRUE(s.compile(Program::Sequence({Program::Execute(cs)})).ok());
  return s.executable();
}

TEST(ExecutableRejects, VertexEdgeWhoseEndWraps) {
  // A BiasRelu vertex's 4-element bias edge moved to offset SIZE_MAX - 1 in
  // the graph section, resealed with a valid checksum: offset + numel wraps
  // to 2, inside the bias, unless the check avoids forming the sum.
  const Executable exe = CompileBiasRelu();
  const Tensor bias = exe.graph->vertices()[0].edges[0].view;
  std::vector<std::uint8_t> bytes = exe.Serialize();

  // The graph section comes first, so the first copy of the bias view is
  // the vertex edge (the kernel plan keeps another, left intact).
  const std::vector<std::uint8_t> view = TensorBytes(bias);
  auto at = std::search(bytes.begin(), bytes.end(), view.begin(), view.end());
  ASSERT_NE(at, bytes.end());
  Tensor wrapped = bias;
  wrapped.offset = SIZE_MAX - 1;
  const std::vector<std::uint8_t> patch = TensorBytes(wrapped);
  std::copy(patch.begin(), patch.end(), at);
  Reseal(bytes);

  StatusOr<Executable> back = Executable::Deserialize(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(back.status().message().find("graph edge"), std::string::npos)
      << back.status().message();
}

TEST(ExecutableRejects, CountsTheBytesLeftCannotHold) {
  // Each count is found by the bytes it prefixes, raised to the number of
  // bytes left after it, and resealed. Every element takes at least one
  // byte, but a vertex at least 44, a program step 93 and a cycle count 8,
  // so each count must fail before anything reserves that many elements.
  const Executable exe = CompileBiasRelu();
  const std::vector<std::uint8_t> bytes = exe.Serialize();
  const Vertex& v0 = exe.graph->vertices()[0];
  std::vector<std::uint8_t> vertex_table, program, cycles;
  PutLe(vertex_table, exe.graph->vertices().size(), 8);
  PutLe(vertex_table, v0.codelet.size(), 8);
  vertex_table.insert(vertex_table.end(), v0.codelet.begin(), v0.codelet.end());
  PutLe(vertex_table, v0.tile, 8);
  PutLe(vertex_table, v0.cs, 4);
  PutProgramBytes(program, exe.program);
  for (const std::vector<double>* table :
       {&exe.kernel_plan.vertex_cycles, &exe.kernel_plan.vertex_flops}) {
    PutLe(cycles, table->size(), 8);
    for (double d : *table) PutLe(cycles, std::bit_cast<std::uint64_t>(d), 8);
  }
  // Name, the bytes that hold the count, and the count's offset in them. A
  // step's child count follows its kind, compute set, two views and repeat
  // count.
  const std::size_t kChildCount = 1 + 4 + 2 * 36 + 8;
  const std::tuple<const char*, const std::vector<std::uint8_t>&, std::size_t>
      counts[] = {{"vertex table", vertex_table, 0},
                  {"program children", program, kChildCount},
                  {"vertex cycles", cycles, 0}};
  for (const auto& [name, prefix, offset] : counts) {
    auto at = std::search(bytes.begin(), bytes.end(), prefix.begin(),
                          prefix.end());
    ASSERT_NE(at, bytes.end()) << name;
    const std::size_t count_at = (at - bytes.begin()) + offset;
    std::vector<std::uint8_t> raised = bytes;
    const std::size_t left = raised.size() - 8 - (count_at + 8);
    for (int i = 0; i < 8; ++i) raised[count_at + i] = (left >> (8 * i)) & 0xff;
    Reseal(raised);
    StatusOr<Executable> back = Executable::Deserialize(raised);
    ASSERT_FALSE(back.ok()) << name;
    EXPECT_EQ(back.status().code(), ErrorCode::kInvalidArgument) << name;
  }
}

TEST(ExeCacheTest, KeyDependsOnGraphProgramAndFlags) {
  Graph g1(Gc200());
  Tensor a = g1.addVariable("a", 64);
  Tensor b = g1.addVariable("b", 64);
  g1.setTileMapping(a, 0);
  g1.setTileMapping(b, 3);

  const CompileOptions base;
  const std::uint64_t k1 = ExeCache::KeyOf(g1, Program::Copy(a, b), base);
  // The key names on-disk artifacts, so its value is part of the cache's
  // contract: a different hash of the same inputs orphans every cache dir.
  EXPECT_EQ(k1, 0x47db4bc668009efeull);
  EXPECT_EQ(k1, ExeCache::KeyOf(g1, Program::Copy(a, b), base));
  EXPECT_NE(k1, ExeCache::KeyOf(g1, Program::Copy(b, a), base));

  CompileOptions unfused = base;
  unfused.fuse_compute_sets = false;
  EXPECT_NE(k1, ExeCache::KeyOf(g1, Program::Copy(a, b), unfused));

  // Trace options never change the artifact, so they must not change the key.
  CompileOptions traced = base;
  traced.trace_label = "something";
  traced.trace_pid = 42;
  EXPECT_EQ(k1, ExeCache::KeyOf(g1, Program::Copy(a, b), traced));

  // A different tile mapping (the tile-slice axis) changes the key.
  Graph g2(Gc200());
  Tensor a2 = g2.addVariable("a", 64);
  Tensor b2 = g2.addVariable("b", 64);
  g2.setTileMapping(a2, 0);
  g2.setTileMapping(b2, 4);
  EXPECT_NE(k1, ExeCache::KeyOf(g2, Program::Copy(a2, b2), base));
}

// The artifact file names (the cache keys) that `build` leaves in a fresh
// on-disk cache, sorted and space-separated. `visit`, when given, sees each
// artifact's path, in name order.
std::string ArtifactNames(
    const std::string& dir, const std::function<void(ExeCache*)>& build,
    const std::function<void(const std::string&)>& visit = nullptr) {
  std::filesystem::remove_all(dir);
  {
    ExeCache cache(dir);
    build(&cache);
  }
  std::set<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    paths.insert(entry.path());
  }
  std::string joined;
  for (const std::filesystem::path& path : paths) {
    if (visit) visit(path.string());
    if (!joined.empty()) joined += ' ';
    joined += path.stem().string();
  }
  std::filesystem::remove_all(dir);
  return joined;
}

nn::ForwardSpec PinnedSpec(core::Method method) {
  core::ShlShape shape;
  shape.input = 64;
  shape.hidden = 64;
  shape.pixelfly = core::ScaledPixelflyConfig(64);
  Rng rng(7);
  nn::Sequential model = nn::BuildShl(method, shape, rng);
  return nn::ExportForward(model);
}

// Every lowered graph behind the paper timings, the serving plans and the
// shard plans, by label; each build compiles through the cache it is given.
std::vector<std::pair<std::string, std::function<void(ExeCache*)>>>
LoweredGraphBuilds() {
  std::vector<std::pair<std::string, std::function<void(ExeCache*)>>> builds;
  const core::Method kServed[] = {core::Method::kBaseline,
                                  core::Method::kButterfly,
                                  core::Method::kPixelfly};

  // The capacity probe's timing plans.
  builds.emplace_back("timing plans", [kServed](ExeCache* cache) {
    for (core::Method method : kServed) {
      serve::PlanOptions opts;
      opts.max_batch = 4;
      opts.execute = false;
      opts.cache = cache;
      auto plan = serve::ModelPlan::Build(PinnedSpec(method), Gc200(), opts);
      ASSERT_TRUE(plan.ok()) << plan.status().message();
    }
  });

  // The paper timings (Fig. 6, Fig. 7, Table 4's IPU column).
  for (std::size_t n : {std::size_t{128}, std::size_t{1024}}) {
    for (bool parity : {true, false}) {
      for (bool fuse : {true, false}) {
        builds.emplace_back(
            "butterfly n=" + std::to_string(n) +
                " parity=" + std::to_string(parity) +
                " fuse=" + std::to_string(fuse),
            [=](ExeCache* cache) {
              core::IpuLoweringOptions lo;
              lo.poptorch_parity = parity;
              lo.fuse_compute_sets = fuse;
              lo.cache = cache;
              core::TimeButterflyIpu(Gc200(), 16, n, lo);
            });
      }
    }
  }
  for (bool fuse : {true, false}) {
    builds.emplace_back("pixelfly fuse=" + std::to_string(fuse),
                        [=](ExeCache* cache) {
                          core::IpuLoweringOptions lo;
                          lo.fuse_compute_sets = fuse;
                          lo.cache = cache;
                          core::TimePixelflyIpu(
                              Gc200(), 16, core::ScaledPixelflyConfig(1024),
                              lo);
                        });
  }
  builds.emplace_back("fastfood", [](ExeCache* cache) {
    core::IpuLoweringOptions lo;
    lo.cache = cache;
    core::TimeFastfoodIpu(Gc200(), 16, 1024, lo);
  });

  // Execute serving plans; their butterfly stages are at PopTorch parity.
  for (core::Method method : kServed) {
    for (bool streaming : {true, false}) {
      builds.emplace_back(std::string("plan ") + core::MethodName(method) +
                              " streaming=" + std::to_string(streaming) +
                              " parity=1",
                          [=](ExeCache* cache) {
                            serve::PlanOptions opts;
                            opts.max_batch = 4;
                            opts.streaming = streaming;
                            opts.cache = cache;
                            auto plan = serve::ModelPlan::Build(
                                PinnedSpec(method), Gc200(), opts);
                            ASSERT_TRUE(plan.ok()) << plan.status().message();
                          });
    }
  }

  // Shard plans: stages A and B.
  for (core::Method method : {core::Method::kBaseline,
                              core::Method::kButterfly}) {
    for (std::size_t chips : {std::size_t{2}, std::size_t{4}}) {
      builds.emplace_back(std::string("shard ") + core::MethodName(method) +
                              " chips=" + std::to_string(chips),
                          [=](ExeCache* cache) {
                            cluster::ShardOptions opts;
                            opts.num_chips = chips;
                            opts.max_batch = 4;
                            opts.cache = cache;
                            auto plan = cluster::ShardPlan::Build(
                                PinnedSpec(method), Gc200(), opts);
                            ASSERT_TRUE(plan.ok()) << plan.status().message();
                          });
    }
  }
  return builds;
}

TEST(ExeCacheTest, TimingPlanArtifactNamesArePinned) {
  // Every lowered graph, built through an on-disk cache: the artifact file
  // names are the keys, pinned to the values a warm cache dir written by
  // earlier builds holds. Any change to a lowering's graph or program moves
  // a key.
  const std::string dir = TempPath("exe_cache_plan_names");
  std::map<std::string, std::string> got;
  for (const auto& [label, build] : LoweredGraphBuilds()) {
    got[label] = ArtifactNames(dir, build);
  }
  const std::map<std::string, std::string> want = {
      {"timing plans", "65fb60ec5ed068b7 897a8519f4b69c45 a0253f289582d27a"},
      {"butterfly n=128 parity=1 fuse=1", "25b45965920d38d1"},
      {"butterfly n=128 parity=1 fuse=0", "6bbcd0e9c06f5552"},
      {"butterfly n=128 parity=0 fuse=1", "262ccef63277eaff"},
      {"butterfly n=128 parity=0 fuse=0", "6cbc1c173bbbf658"},
      {"butterfly n=1024 parity=1 fuse=1", "1d283f4e2850413d"},
      {"butterfly n=1024 parity=1 fuse=0", "6cd58937bb922300"},
      {"butterfly n=1024 parity=0 fuse=1", "e16d413ff83db192"},
      {"butterfly n=1024 parity=0 fuse=0", "2fc4a952a6bb967f"},
      {"pixelfly fuse=1", "ff02a08668d81373"},
      {"pixelfly fuse=0", "2a165808abb3e19a"},
      {"fastfood", "59117164b0e8fb32"},
      // Execute and timing-only plans share a key: `execute` is a run
      // option, not part of the artifact.
      {"plan Baseline streaming=1 parity=1", "897a8519f4b69c45"},
      {"plan Baseline streaming=0 parity=1", "80cc54e7b636e581"},
      {"plan Butterfly streaming=1 parity=1", "a0253f289582d27a"},
      {"plan Butterfly streaming=0 parity=1", "c407863c563ea7a6"},
      {"plan Pixelfly streaming=1 parity=1", "65fb60ec5ed068b7"},
      {"plan Pixelfly streaming=0 parity=1", "e4853c84f21a8d23"},
      // Stage B depends only on the hidden slice, not the method.
      {"shard Baseline chips=2", "14b22d1118819718 accce6142d1f9c00"},
      {"shard Baseline chips=4", "05a7b366d314f273 e3639a83de45c18d"},
      {"shard Butterfly chips=2", "14b22d1118819718 92ddb0d321dfc369"},
      {"shard Butterfly chips=4", "05a7b366d314f273 c521262bea414ec8"},
  };
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [label, names] : want) {
    EXPECT_EQ(got[label], names) << label;
  }
}

TEST(ExeCacheTest, LoweredGraphArtifactTrailersArePinned) {
  // Each artifact file's last 8 bytes, in key order. The trailer is the
  // FNV-1a 64 of every byte before it, so pinning it pins the whole file:
  // an encoder that moves any byte of any of these artifacts fails here.
  const std::string dir = TempPath("exe_cache_plan_trailers");
  std::map<std::string, std::string> got;
  for (const auto& [label, build] : LoweredGraphBuilds()) {
    std::string& trailers = got[label];
    ArtifactNames(dir, build, [&](const std::string& path) {
      std::ifstream in(path, std::ios::binary | std::ios::ate);
      ASSERT_TRUE(in.good() && in.tellg() >= 8) << path;
      in.seekg(-8, std::ios::end);
      std::uint8_t tail[8];
      in.read(reinterpret_cast<char*>(tail), 8);
      std::uint64_t h = 0;
      for (int i = 0; i < 8; ++i) h |= std::uint64_t{tail[i]} << (8 * i);
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(h));
      trailers += (trailers.empty() ? "" : " ") + std::string(hex);
    });
  }
  const std::map<std::string, std::string> want = {
      {"timing plans", "210c429e78101bd5 08b3e5b917893f3f 38db1b8e569cdeb5"},
      {"butterfly n=128 parity=1 fuse=1", "a71be166a08b77a9"},
      {"butterfly n=128 parity=1 fuse=0", "841e17909eef0f9e"},
      {"butterfly n=128 parity=0 fuse=1", "d7e2171189ccbb52"},
      {"butterfly n=128 parity=0 fuse=0", "2cbb4e0904746941"},
      {"butterfly n=1024 parity=1 fuse=1", "dc89d863c0fe4b35"},
      {"butterfly n=1024 parity=1 fuse=0", "fbf109557092390c"},
      {"butterfly n=1024 parity=0 fuse=1", "44587dac152b08c9"},
      {"butterfly n=1024 parity=0 fuse=0", "e8cc6fd41934073c"},
      {"pixelfly fuse=1", "7fd7be9b24cdfdb1"},
      {"pixelfly fuse=0", "a9c4dab4f355808b"},
      {"fastfood", "517410602c2f5c7e"},
      {"plan Baseline streaming=1 parity=1", "08b3e5b917893f3f"},
      {"plan Baseline streaming=0 parity=1", "f0f18fdab0c2f851"},
      {"plan Butterfly streaming=1 parity=1", "38db1b8e569cdeb5"},
      {"plan Butterfly streaming=0 parity=1", "f8c3808d64b11ab2"},
      {"plan Pixelfly streaming=1 parity=1", "210c429e78101bd5"},
      {"plan Pixelfly streaming=0 parity=1", "c1bb3cf5209a5339"},
      {"shard Baseline chips=2", "8c6f3a2ab13b88c7 cd5e81b5a686455c"},
      {"shard Baseline chips=4", "7ab998c50d75083a 4a0a5904d0781f5a"},
      {"shard Butterfly chips=2", "8c6f3a2ab13b88c7 af44e625d75facbb"},
      {"shard Butterfly chips=4", "7ab998c50d75083a 4a036a982fc119fb"},
  };
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [label, trailers] : want) {
    EXPECT_EQ(got[label], trailers) << label;
  }
}

TEST(ExeCacheTest, LoweredGraphNamesAreUnique) {
  // Within every lowered graph, no two variables and no two compute sets
  // share a name: per-layer labels and ledger splits key on them.
  const std::string dir = TempPath("exe_cache_graph_names");
  for (const auto& build : LoweredGraphBuilds()) {
    ArtifactNames(dir, build.second, [&](const std::string& path) {
      StatusOr<Executable> exe = Executable::Load(path);
      ASSERT_TRUE(exe.ok()) << exe.status().message();
      std::set<std::string> vars, sets;
      for (const Variable& v : exe.value().graph->variables()) {
        EXPECT_TRUE(vars.insert(v.name).second)
            << build.first << ": two variables named " << v.name;
      }
      for (const ComputeSet& cs : exe.value().graph->computeSets()) {
        EXPECT_TRUE(sets.insert(cs.name).second)
            << build.first << ": two compute sets named " << cs.name;
      }
    });
  }
}

TEST(ExeCacheTest, DirectoryAtTheKeyPathIsAMiss) {
  // Something that is not an artifact file squats on the key's path: the
  // cache compiles, fails the store (logged), and still serves the artifact.
  Graph g(Gc200());
  Tensor a = g.addVariable("a", 64);
  Tensor b = g.addVariable("b", 64);
  g.setTileMapping(a, 0);
  g.setTileMapping(b, 3);
  const Program prog = Program::Copy(a, b);
  const std::string dir = TempPath("exe_cache_dir_squat");
  std::filesystem::remove_all(dir);
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.ipuexe",
                static_cast<unsigned long long>(
                    ExeCache::KeyOf(g, prog, CompileOptions{})));
  std::filesystem::create_directories(dir + "/" + name);
  ExeCache cache(dir);
  auto exe = cache.GetOrCompile(g, prog, CompileOptions{});
  ASSERT_TRUE(exe.ok()) << exe.status().message();
  EXPECT_NE(exe.value(), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
  EXPECT_EQ(cache.stats().disk_stores, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ExeCacheTest, SessionsShareOneCompileThroughTheCache) {
  ExeCache cache;  // in-memory only
  auto make = [&]() {
    Session s(Gc200(), SessionOptions{.cache = &cache});
    auto plan = BuildMatMul(s.graph(), 32, 64, 16, MatMulImpl::kPoplin);
    EXPECT_TRUE(plan.ok());
    EXPECT_TRUE(s.compile(plan.value().prog).ok());
    return s.run().ToJson();
  };
  const std::string r1 = make();
  const std::string r2 = make();
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  EXPECT_EQ(cache.stats().disk_stores, 0u);
}

TEST(ExeCacheTest, ConcurrentWritersNeverPublishATornArtifact) {
  // Two cache instances over one directory model two processes racing to
  // store the same key. Each writer saves through its own unique temp file
  // and publishes with an atomic rename, so whatever lands on disk must
  // always pass the trailing-checksum validation on load -- a shared ".tmp"
  // name would let the writers interleave and rename a torn file into
  // place. Repeat the race with loads mixed in to shake out interleavings.
  const std::string dir = TempPath("exe_cache_two_writers");
  std::filesystem::remove_all(dir);
  for (int round = 0; round < 4; ++round) {
    std::filesystem::remove_all(dir);
    ExeCache writer_a(dir);
    ExeCache writer_b(dir);
    ExeCache* writers[2] = {&writer_a, &writer_b};
    std::vector<std::string> reports(8);
    ParallelForWith(8, 0, 8, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        Session s(Gc200(), SessionOptions{.cache = writers[i % 2]});
        auto plan = BuildMatMul(s.graph(), 32, 64, 16, MatMulImpl::kPoplin);
        EXPECT_TRUE(plan.ok());
        EXPECT_TRUE(s.compile(plan.value().prog).ok());
        reports[i] = s.run().ToJson();
      }
    });
    for (std::size_t i = 1; i < reports.size(); ++i)
      EXPECT_EQ(reports[i], reports[0]);

    // Whatever the race left behind must be a complete, valid artifact
    // (and nothing else -- no stray temp files survive the publish).
    std::size_t artifacts = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
      StatusOr<Executable> loaded = Executable::Load(entry.path().string());
      EXPECT_TRUE(loaded.ok()) << name << ": " << loaded.status().message();
      ++artifacts;
    }
    EXPECT_EQ(artifacts, 1u);

    // A third, cold cache must be able to serve the artifact from disk.
    ExeCache reader(dir);
    Session s(Gc200(), SessionOptions{.cache = &reader});
    auto plan = BuildMatMul(s.graph(), 32, 64, 16, MatMulImpl::kPoplin);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(s.compile(plan.value().prog).ok());
    EXPECT_EQ(s.run().ToJson(), reports[0]);
    EXPECT_EQ(reader.stats().disk_hits, 1u);
    EXPECT_EQ(reader.stats().misses, 0u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace repro::ipu
