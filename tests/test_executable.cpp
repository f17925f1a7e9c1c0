// ipu::Executable artifact contract: deterministic bytes (host wall clock
// and host thread count excluded), save -> load round trips that reproduce
// run reports, fig5-style ledgers, and serving logits bit for bit, clean
// Status rejection of damaged or version-mismatched files, and the
// content-addressed ExeCache over it all.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "ipusim/codelet.h"
#include "ipusim/exe_cache.h"
#include "ipusim/executable.h"
#include "ipusim/matmul.h"
#include "ipusim/profiler.h"
#include "ipusim/session.h"
#include "nn/export.h"
#include "nn/model.h"
#include "core/device_time.h"
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
  Session warm(Gc200());
  ASSERT_TRUE(warm.load(path).ok());
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
  // MemoryReport prints per-pass wall clock, which is intentionally not in
  // the artifact (loads as 0); mask it before comparing the ledgers.
  auto mask_ms = [](std::string s) {
    for (std::size_t open = s.find('('); open != std::string::npos;
         open = s.find('(', open + 1)) {
      const std::size_t close = s.find(" ms)", open);
      if (close != std::string::npos) s.replace(open, close - open + 4, "(ms)");
    }
    return s;
  };
  EXPECT_EQ(mask_ms(MemoryReport(exe)), mask_ms(MemoryReport(loaded.value())));
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

TEST(ExeCacheTest, TimingPlanArtifactNamesArePinned) {
  // The capacity probe's timing plans, built through an on-disk cache: the
  // artifact file names are the keys, pinned to the values a warm cache dir
  // written by earlier builds holds.
  const std::string dir = TempPath("exe_cache_plan_names");
  std::filesystem::remove_all(dir);
  ExeCache cache(dir);
  for (core::Method method : {core::Method::kBaseline, core::Method::kButterfly,
                              core::Method::kPixelfly}) {
    core::ShlShape shape;
    shape.input = 64;
    shape.hidden = 64;
    shape.pixelfly = core::ScaledPixelflyConfig(64);
    Rng rng(7);
    nn::Sequential model = nn::BuildShl(method, shape, rng);
    const nn::ForwardSpec spec = nn::ExportForward(model);
    serve::PlanOptions opts;
    opts.max_batch = 4;
    opts.execute = false;
    opts.cache = &cache;
    auto plan = serve::ModelPlan::Build(spec, Gc200(), opts);
    ASSERT_TRUE(plan.ok()) << plan.status().message();
  }
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  EXPECT_EQ(names, (std::set<std::string>{"65fb60ec5ed068b7.ipuexe",
                                          "897a8519f4b69c45.ipuexe",
                                          "a0253f289582d27a.ipuexe"}));
  std::filesystem::remove_all(dir);
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
