// Tests for the serving subsystem (src/serve): micro-batcher policy,
// metrics arithmetic, device-vs-host numerics parity for all three deployed
// methods, replica sharing, the butterfly > dense capacity ordering, the
// determinism contract, backpressure, and the replay's input checks.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/device_time.h"
#include "core/method.h"
#include "ipusim/arch.h"
#include "linalg/matrix.h"
#include "nn/export.h"
#include "nn/model.h"
#include "serve/batcher.h"
#include "serve/metrics.h"
#include "serve/model_plan.h"
#include "serve/replica_pool.h"
#include "serve/server.h"
#include "util/rng.h"

namespace repro::serve {
namespace {

using core::Method;

// ---------------------------------------------------------------------------
// MicroBatcher

TEST(MicroBatcherTest, FullBatchIsReadyImmediately) {
  MicroBatcher b(BatchPolicy{.max_batch = 4, .max_delay_s = 1.0});
  for (std::uint64_t i = 0; i < 4; ++i) b.Add(Request{i, 0.0, 0});
  EXPECT_TRUE(b.Ready(0.0));  // full: no need to wait out the delay
  std::vector<Request> batch = b.Pop();
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[3].id, 3u);
  EXPECT_TRUE(b.empty());
}

TEST(MicroBatcherTest, PartialBatchWaitsOutTheDeadline) {
  MicroBatcher b(BatchPolicy{.max_batch = 8, .max_delay_s = 100e-6});
  b.Add(Request{0, 1.0, 0});
  EXPECT_FALSE(b.Ready(1.0));
  EXPECT_FALSE(b.Ready(1.0 + 99e-6));
  EXPECT_DOUBLE_EQ(b.Deadline(), 1.0 + 100e-6);
  EXPECT_TRUE(b.Ready(1.0 + 100e-6));
  EXPECT_EQ(b.Pop().size(), 1u);
  EXPECT_TRUE(std::isinf(b.Deadline()));  // nothing pending
}

TEST(MicroBatcherTest, PopTakesOldestUpToMaxBatch) {
  MicroBatcher b(BatchPolicy{.max_batch = 3, .max_delay_s = 1.0});
  for (std::uint64_t i = 0; i < 5; ++i) b.Add(Request{i, 0.1 * double(i), 0});
  std::vector<Request> first = b.Pop();
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].id, 0u);
  EXPECT_EQ(first[2].id, 2u);
  EXPECT_EQ(b.pending(), 2u);
  // The remaining partial batch's deadline is anchored on request 3.
  EXPECT_DOUBLE_EQ(b.Deadline(), 0.3 + 1.0);
}

// ---------------------------------------------------------------------------
// ServeMetrics

TEST(ServeMetricsTest, NearestRankPercentiles) {
  ServeMetrics m(4);
  // 10 latencies 1ms..10ms in shuffled completion order.
  const double ms[] = {5, 1, 9, 2, 10, 3, 8, 4, 7, 6};
  for (double v : ms) m.RecordCompletion(v * 1e-3, 0.0);
  m.Finalize(10e-3);
  EXPECT_DOUBLE_EQ(m.LatencyPercentile(50.0), 5e-3);   // ceil(0.5*10) = 5th
  EXPECT_DOUBLE_EQ(m.LatencyPercentile(95.0), 10e-3);  // ceil(0.95*10) = 10th
  EXPECT_DOUBLE_EQ(m.LatencyPercentile(99.0), 10e-3);
  EXPECT_DOUBLE_EQ(m.maxLatency(), 10e-3);
  EXPECT_NEAR(m.meanLatency(), 5.5e-3, 1e-12);
  EXPECT_DOUBLE_EQ(m.qps(), 10 / 10e-3);
}

TEST(ServeMetricsTest, OccupancyHistogramAndPadding) {
  ServeMetrics m(4);
  m.RecordBatch(4);
  m.RecordBatch(4);
  m.RecordBatch(1);
  EXPECT_EQ(m.batches(), 3u);
  ASSERT_EQ(m.occupancyHist().size(), 5u);  // slots 0..max_batch
  EXPECT_EQ(m.occupancyHist()[4], 2u);
  EXPECT_EQ(m.occupancyHist()[1], 1u);
  EXPECT_DOUBLE_EQ(m.meanOccupancy(), 3.0);
  // 3 batches * 4 slots = 12 executed, 9 occupied -> 25% padding.
  EXPECT_DOUBLE_EQ(m.paddingFraction(), 0.25);
}

TEST(ServeMetricsTest, ToJsonCarriesTheContract) {
  ServeMetrics m(2);
  m.RecordAdmitted();
  m.RecordAdmitted();
  m.RecordRejected();
  m.RecordBatch(2);
  m.RecordCompletion(1e-3, 2e-4);
  m.RecordCompletion(2e-3, 1e-4);
  m.Finalize(4e-3);
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"admitted\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rejected\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"completed\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency_p99_us\": 2000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"occupancy_hist\": [0, 0, 1]"), std::string::npos)
      << json;
}

TEST(ServeMetricsTest, PercentileEdgeCases) {
  ServeMetrics one(4);
  one.RecordCompletion(3e-3, 0.0);
  // A single sample is every percentile: nearest-rank clamps to rank 1.
  EXPECT_DOUBLE_EQ(one.LatencyPercentile(0.001), 3e-3);
  EXPECT_DOUBLE_EQ(one.LatencyPercentile(50.0), 3e-3);
  EXPECT_DOUBLE_EQ(one.LatencyPercentile(100.0), 3e-3);

  ServeMetrics many(4);
  for (int i = 1; i <= 9; ++i) many.RecordCompletion(i * 1e-3, 0.0);
  EXPECT_DOUBLE_EQ(many.LatencyPercentile(100.0), 9e-3);   // p100 = max
  EXPECT_DOUBLE_EQ(many.LatencyPercentile(0.001), 1e-3);   // p->0+ = min
  EXPECT_DOUBLE_EQ(many.LatencyPercentile(100.0), many.maxLatency());
}

TEST(ServeMetricsTest, ToJsonPercentilesMatchPerCallPathByteForByte) {
  // ToJson and LatencyPercentile select their ranks without a full sort;
  // both must print the nearest-rank value of a sorted copy made here, on
  // a large shuffled set (a continuous one and one where most latencies
  // repeat, as the closed loop's batch-synchronous completions do).
  for (const bool repeated : {false, true}) {
    ServeMetrics m(8);
    Rng rng(99);
    std::vector<double> sorted;
    for (int i = 0; i < 5000; ++i) {
      const double latency =
          repeated ? 1e-4 * std::floor(rng.Uniform(1.0, 41.0))
                   : rng.Uniform(1e-5, 5e-2);
      m.RecordCompletion(latency, rng.Uniform(0.0, 1e-3));
      sorted.push_back(latency);
    }
    std::sort(sorted.begin(), sorted.end());
    m.RecordBatch(8);
    m.Finalize(1.0);
    const std::string json = m.ToJson();
    auto pct_field = [&](const char* key, double p) {
      const std::size_t rank = static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
      const double want = sorted[rank - 1];
      EXPECT_EQ(m.LatencyPercentile(p), want) << key;
      char buf[64];
      std::snprintf(buf, sizeof buf, "\"%s\": %.17g", key, want * 1e6);
      EXPECT_NE(json.find(buf), std::string::npos) << buf << " not in " << json;
    };
    pct_field("latency_p50_us", 50.0);
    pct_field("latency_p95_us", 95.0);
    pct_field("latency_p99_us", 99.0);
    EXPECT_EQ(m.LatencyPercentile(100.0), sorted.back());
    EXPECT_EQ(m.LatencyPercentile(1e-3), sorted.front());
    // And the whole serialization is stable call to call.
    EXPECT_EQ(json, m.ToJson());
  }
}

TEST(ServeMetricsTest, OutOfRangeBatchIsCountedNotFatal) {
  ServeMetrics m(4);
  EXPECT_FALSE(m.RecordBatch(0));   // empty dispatch: a server bug
  EXPECT_FALSE(m.RecordBatch(5));   // above the compiled shape
  EXPECT_TRUE(m.RecordBatch(2));
  EXPECT_EQ(m.invariantViolations(), 2u);
  EXPECT_EQ(m.batches(), 1u);  // rejected batches leave no occupancy trace
  EXPECT_DOUBLE_EQ(m.meanOccupancy(), 2.0);
  EXPECT_NE(m.ToJson().find("\"invariant_violations\": 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ModelPlan numerics: device logits must match the host forward pass.

core::ShlShape SmallShape(std::size_t n) {
  core::ShlShape shape;
  shape.input = n;
  shape.hidden = n;
  shape.classes = 10;
  shape.pixelfly = core::PixelflyConfig{
      .n = n, .block_size = 16, .butterfly_size = 4, .low_rank = 16};
  return shape;
}

constexpr std::size_t kParityN = 64;

// An untrained but randomly initialised SHL model at n = kParityN.
nn::Sequential ParityModel(Method method) {
  Rng rng(41);
  return nn::BuildShl(method, SmallShape(kParityN), rng);
}

// `rows` uniform input rows for ParityModel.
Matrix ParityInputs(std::size_t rows) {
  Matrix x(rows, kParityN);
  Rng data_rng(7);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < kParityN; ++j)
      x(i, j) = float(data_rng.Uniform(-1.0, 1.0));
  return x;
}

// Exports `model` into an executing plan of `max_batch` and serves `x` on
// one replica.
Matrix ServedLogits(nn::Sequential& model, std::size_t max_batch,
                    const Matrix& x) {
  auto plan = ModelPlan::Build(nn::ExportForward(model), ipu::Gc200(),
                               PlanOptions{.max_batch = max_batch});
  REPRO_REQUIRE(plan.ok(), "%s", plan.status().message().c_str());
  std::unique_ptr<ipu::Engine> engine = plan.value()->MakeReplica();
  return plan.value()->RunBatch(*engine, x);
}

// Checks RunBatch against the host Forward on the same inputs.
void CheckParity(Method method, std::size_t rows) {
  nn::Sequential model = ParityModel(method);
  const Matrix x = ParityInputs(rows);
  Matrix device = ServedLogits(model, /*max_batch=*/8, x);
  const Matrix& host = model.Forward(x, /*train=*/false);

  ASSERT_EQ(device.rows(), rows);
  ASSERT_EQ(device.cols(), 10u);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < 10u; ++j) {
      EXPECT_NEAR(device(i, j), host(i, j), 5e-4)
          << MethodName(method) << " logit (" << i << ", " << j << ")";
    }
  }
}

TEST(ModelPlanTest, DenseMatchesHostForward) { CheckParity(Method::kBaseline, 8); }

TEST(ModelPlanTest, ButterflyMatchesHostForward) {
  CheckParity(Method::kButterfly, 8);
}

TEST(ModelPlanTest, PixelflyMatchesHostForward) {
  CheckParity(Method::kPixelfly, 8);
}

TEST(ModelPlanTest, PartialBatchIsZeroPaddedCorrectly) {
  // rows < max_batch exercises the padding path end to end.
  CheckParity(Method::kButterfly, 3);
}

// FNV-1a (64-bit) over the bytes of some floats.
std::uint64_t Fnv1a(std::span<const float> v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

std::uint64_t Fnv1a(const Matrix& m) { return Fnv1a({m.data(), m.size()}); }

TEST(ModelPlanTest, ServedLogitsArePinnedBitwise) {
  // ParityModel's logits on a full batch, at CheckParity's max_batch and at
  // the serving benches' 32. The digests were captured while the GEMM
  // vertices still ran scalar loop nests; a change to any vertex's
  // arithmetic or accumulation order moves them.
  struct Pin {
    Method method;
    std::size_t max_batch;
    std::uint64_t digest;
  };
  for (const Pin& pin : {Pin{Method::kBaseline, 8, 0x11413c23016267d5ull},
                         Pin{Method::kButterfly, 8, 0x5788e5d420b89a1aull},
                         Pin{Method::kPixelfly, 8, 0xbbb420ed8cf3b0c6ull},
                         Pin{Method::kBaseline, 32, 0xc5ae4a3475a151e5ull},
                         Pin{Method::kButterfly, 32, 0xaae43a2bddcaf856ull},
                         Pin{Method::kPixelfly, 32, 0xd8c3d09211bfe460ull}}) {
    nn::Sequential model = ParityModel(pin.method);
    const Matrix logits =
        ServedLogits(model, pin.max_batch, ParityInputs(pin.max_batch));
    EXPECT_EQ(Fnv1a(logits), pin.digest)
        << MethodName(pin.method) << " at max_batch " << pin.max_batch
        << ": 0x" << std::hex << Fnv1a(logits);
  }
}

TEST(ModelPlanTest, TooSmallTileSliceIsInvalid) {
  Rng rng(1);
  nn::Sequential model = nn::BuildShl(Method::kBaseline, SmallShape(64), rng);
  nn::ForwardSpec spec = nn::ExportForward(model);
  auto plan = ModelPlan::Build(
      spec, ipu::Gc200(),
      PlanOptions{.max_batch = 8, .execute = false, .num_tiles = 1});
  EXPECT_FALSE(plan.ok());
}

// ---------------------------------------------------------------------------
// Replication

TEST(ReplicaPoolTest, ReplicasShareExecutableAndServeIdenticalLogits) {
  Rng rng(3);
  nn::Sequential model = nn::BuildShl(Method::kButterfly, SmallShape(64), rng);
  nn::ForwardSpec spec = nn::ExportForward(model);
  auto plan =
      ModelPlan::Build(spec, ipu::Gc200(), PlanOptions{.max_batch = 4});
  ASSERT_TRUE(plan.ok()) << plan.status().message();

  ReplicaPool pool(*plan.value(), /*replicas=*/3);
  ASSERT_EQ(pool.size(), 3u);
  // One compiled executable behind every engine.
  EXPECT_EQ(&pool.engine(0).executable(), &pool.engine(1).executable());
  EXPECT_EQ(&pool.engine(0).executable(), &pool.engine(2).executable());

  Matrix x(4, 64);
  Rng data_rng(9);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j)
      x(i, j) = float(data_rng.Normal());
  Matrix a = plan.value()->RunBatch(pool.engine(0), x);
  Matrix b = plan.value()->RunBatch(pool.engine(2), x);
  // Same weights, same inputs, independent storage: bitwise-equal outputs.
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_EQ(a(i, j), b(i, j)) << "(" << i << ", " << j << ")";
}

// ---------------------------------------------------------------------------
// One host copy of the weights: replicas share the variables no program
// step writes with their plan's session engine, copy-on-write.

constexpr Method kServedMethods[] = {Method::kBaseline, Method::kButterfly,
                                     Method::kPixelfly};

// A whole-variable view of `var`.
ipu::Tensor WholeVariable(const ipu::Executable& exe, ipu::VarId var) {
  const std::size_t numel = exe.graph->variables()[var].numel;
  return ipu::Tensor{var, 0, numel, 1, numel};
}

// The id of the variable called `name` (fatal when there is none).
ipu::VarId VariableNamed(const ipu::Executable& exe, const std::string& name) {
  const auto& vars = exe.graph->variables();
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (vars[i].name == name) return static_cast<ipu::VarId>(i);
  }
  REPRO_REQUIRE(false, "no variable %s", name.c_str());
  return ipu::kInvalidId;
}

// ParityModel(method) as an executing plan of `max_batch`.
std::unique_ptr<ModelPlan> ParityPlan(Method method, std::size_t max_batch) {
  nn::Sequential model = ParityModel(method);
  PlanOptions opts;
  opts.max_batch = max_batch;
  auto plan = ModelPlan::Build(nn::ExportForward(model), ipu::Gc200(), opts);
  REPRO_REQUIRE(plan.ok(), "%s", plan.status().message().c_str());
  return plan.take();
}

std::vector<float> Read(const ipu::Session& s, const ipu::Tensor& t) {
  std::vector<float> out(t.numel);
  s.readTensor(t, out);
  return out;
}

std::vector<float> Read(const ipu::Engine& e, const ipu::Tensor& t) {
  std::vector<float> out(t.numel);
  e.readTensor(t, out);
  return out;
}

TEST(ReplicaPoolTest, ReplicasOwnOnlyTheWrittenVariables) {
  constexpr std::size_t kReplicas = 4;
  for (Method method : kServedMethods) {
    for (std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(MethodName(method)) + " at " +
                   std::to_string(threads) + " host threads");
      const std::unique_ptr<ModelPlan> built = ParityPlan(method, 8);
      ModelPlan& plan = *built;
      const ipu::Executable& exe = plan.executable();
      const std::vector<bool> constant = ipu::ConstantVariables(exe);
      // Biases are constants; the streamed input and the logits are not.
      EXPECT_TRUE(constant[VariableNamed(exe, "serve_hb")]);
      EXPECT_TRUE(constant[VariableNamed(exe, "serve_cb")]);
      EXPECT_FALSE(constant[VariableNamed(exe, "serve_x")]);
      EXPECT_FALSE(constant[VariableNamed(exe, "serve_logits")]);
      std::size_t constant_bytes = 0;
      std::size_t written_bytes = 0;
      for (std::size_t v = 0; v < constant.size(); ++v) {
        (constant[v] ? constant_bytes : written_bytes) +=
            exe.graph->variables()[v].numel * sizeof(float);
      }

      // Before any replica the session engine holds every buffer alone.
      EXPECT_EQ(plan.session().ownedStorageBytes(),
                constant_bytes + written_bytes);
      {
        ReplicaPool pool(plan, kReplicas, threads);
        std::size_t replica_bytes = 0;
        for (std::size_t i = 0; i < pool.size(); ++i) {
          replica_bytes += pool.engine(i).ownedStorageBytes();
        }
        EXPECT_EQ(replica_bytes, kReplicas * written_bytes);
        // The constants are shared now, so only the written ones are the
        // session engine's alone.
        EXPECT_EQ(plan.session().ownedStorageBytes(), written_bytes);
      }
      // With the pool gone, the one copy of the constants is the session
      // engine's alone again.
      EXPECT_EQ(plan.session().ownedStorageBytes(),
                constant_bytes + written_bytes);
    }
  }
}

TEST(ReplicaPoolTest, WritingASharedConstantCopiesItFirst) {
  const Matrix x = ParityInputs(8);
  for (Method method : kServedMethods) {
    for (std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(MethodName(method)) + " at " +
                   std::to_string(threads) + " host threads");
      const std::unique_ptr<ModelPlan> built = ParityPlan(method, 8);
      ModelPlan& plan = *built;
      const ipu::Tensor hb =
          WholeVariable(plan.executable(),
                        VariableNamed(plan.executable(), "serve_hb"));
      ReplicaPool pool(plan, /*replicas=*/3, threads);
      const std::vector<float> bias = Read(plan.session(), hb);
      const std::uint64_t logits = Fnv1a(plan.RunBatch(pool.engine(1), x));
      std::vector<float> bumped = bias;
      for (float& b : bumped) b += 0.5f;

      // A write into one replica stays in that replica.
      const std::size_t owned = pool.engine(0).ownedStorageBytes();
      pool.engine(0).writeTensor(hb, bumped);
      EXPECT_EQ(pool.engine(0).ownedStorageBytes(), owned + hb.bytes());
      EXPECT_EQ(Read(pool.engine(0), hb), bumped);
      EXPECT_EQ(Read(pool.engine(1), hb), bias);
      EXPECT_EQ(Read(pool.engine(2), hb), bias);
      EXPECT_EQ(Read(plan.session(), hb), bias);
      EXPECT_EQ(Fnv1a(plan.RunBatch(pool.engine(1), x)), logits);
      EXPECT_EQ(Fnv1a(plan.RunBatch(pool.engine(2), x)), logits);
      const std::uint64_t bumped_logits =
          Fnv1a(plan.RunBatch(pool.engine(0), x));
      EXPECT_NE(bumped_logits, logits);

      // A write into the session engine after the replicas exist leaves
      // them as they were; a replica made afterwards starts from it, and
      // serves what replica 0's private copy serves.
      plan.session().writeTensor(hb, bumped);
      EXPECT_EQ(Read(pool.engine(1), hb), bias);
      EXPECT_EQ(Read(pool.engine(2), hb), bias);
      EXPECT_EQ(Fnv1a(plan.RunBatch(pool.engine(1), x)), logits);
      EXPECT_EQ(Fnv1a(plan.RunBatch(pool.engine(2), x)), logits);
      EXPECT_EQ(Fnv1a(plan.RunBatch(pool.engine(0), x)), bumped_logits);
      std::unique_ptr<ipu::Engine> late = plan.MakeReplica(threads);
      EXPECT_EQ(Read(*late, hb), bumped);
      EXPECT_EQ(Fnv1a(plan.RunBatch(*late, x)), bumped_logits);
    }
  }
}

// The sharing is only sound while no vertex writes through an edge that is
// not marked as an output: a closed loop over every replica must leave
// every shared constant's bits as they were.
TEST(ReplicaPoolTest, ServingNeverWritesASharedConstant) {
  const Matrix inputs = ParityInputs(16);
  for (Method method : kServedMethods) {
    for (std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(MethodName(method)) + " at " +
                   std::to_string(threads) + " host threads");
      const std::unique_ptr<ModelPlan> built = ParityPlan(method, 4);
      ModelPlan& plan = *built;
      const ipu::Executable& exe = plan.executable();
      const std::vector<bool> constant = ipu::ConstantVariables(exe);
      auto checksums = [&] {
        std::vector<std::uint64_t> sums;
        for (std::size_t v = 0; v < constant.size(); ++v) {
          if (!constant[v]) continue;
          sums.push_back(Fnv1a(Read(
              plan.session(),
              WholeVariable(exe, static_cast<ipu::VarId>(v)))));
        }
        return sums;
      };
      const std::vector<std::uint64_t> before = checksums();
      ASSERT_FALSE(before.empty());

      ReplicaPool pool(plan, /*replicas=*/3);
      ServerConfig cfg;
      cfg.batch = BatchPolicy{.max_batch = 4, .max_delay_s = 50e-6};
      cfg.queue_capacity = 16;
      cfg.host_threads = threads;
      Server server(pool, cfg);
      ServeResult r = server.RunClosedLoop(
          ClosedLoopLoad{.clients = 12, .requests = 60, .think_s = 0.0},
          &inputs);
      ASSERT_EQ(r.logits.rows(), 60u);
      EXPECT_EQ(checksums(), before);
    }
  }
}

TEST(ReplicaPoolTest, ButterflyFitsMoreReplicasThanDenseAtN1024) {
  // The acceptance claim of the serving subsystem: at n = 1024, the
  // O(n log n) butterfly weights fit strictly more timing-plan replicas per
  // simulated GC200 than the O(n^2) dense baseline.
  core::ShlShape shape;  // defaults: 1024 -> 1024 -> 10
  const PlanOptions probe{.max_batch = 32, .execute = false};

  Rng rng_d(11);
  nn::Sequential dense = nn::BuildShl(Method::kBaseline, shape, rng_d);
  nn::ForwardSpec dense_spec = nn::ExportForward(dense);
  const std::size_t dense_k =
      ProbeMaxReplicas(dense_spec, ipu::Gc200(), probe, /*cap=*/256).replicas;

  Rng rng_b(11);
  nn::Sequential bfly = nn::BuildShl(Method::kButterfly, shape, rng_b);
  nn::ForwardSpec bfly_spec = nn::ExportForward(bfly);
  const std::size_t bfly_k =
      ProbeMaxReplicas(bfly_spec, ipu::Gc200(), probe, /*cap=*/256).replicas;

  EXPECT_GE(dense_k, 1u);
  EXPECT_GT(bfly_k, dense_k)
      << "butterfly should fit strictly more replicas (dense " << dense_k
      << ", butterfly " << bfly_k << ")";
}

// ---------------------------------------------------------------------------
// Server: determinism + backpressure contracts

struct ServeFixture {
  std::unique_ptr<ModelPlan> plan;
  Matrix inputs;

  explicit ServeFixture(std::size_t max_batch = 4) {
    Rng rng(5);
    nn::Sequential model =
        nn::BuildShl(Method::kButterfly, SmallShape(64), rng);
    nn::ForwardSpec spec = nn::ExportForward(model);
    auto built = ModelPlan::Build(spec, ipu::Gc200(),
                                  PlanOptions{.max_batch = max_batch});
    REPRO_REQUIRE(built.ok(), "fixture plan: %s", built.status().message().c_str());
    plan = built.take();
    inputs = Matrix(16, 64);
    Rng data_rng(13);
    for (std::size_t i = 0; i < inputs.rows(); ++i)
      for (std::size_t j = 0; j < inputs.cols(); ++j)
        inputs(i, j) = float(data_rng.Uniform(-1.0, 1.0));
  }
};

TEST(ServerTest, MetricsAndLogitsAreHostThreadInvariant) {
  ServeFixture fx;
  const OpenLoopLoad load{.qps = 2.0 / fx.plan->batchSeconds(),
                          .requests = 200,
                          .seed = 42};

  auto run = [&](std::size_t host_threads) {
    ReplicaPool pool(*fx.plan, /*replicas=*/2);
    ServerConfig cfg;
    cfg.batch = BatchPolicy{.max_batch = 4, .max_delay_s = 100e-6};
    cfg.queue_capacity = 32;
    cfg.host_threads = host_threads;
    Server server(pool, cfg);
    return server.RunOpenLoop(load, &fx.inputs);
  };

  ServeResult one = run(1);
  ServeResult four = run(4);
  // Determinism contract: bitwise-identical metrics JSON and logits.
  EXPECT_EQ(one.metrics.ToJson(), four.metrics.ToJson());
  ASSERT_EQ(one.logits.rows(), four.logits.rows());
  for (std::size_t i = 0; i < one.logits.rows(); ++i)
    for (std::size_t j = 0; j < one.logits.cols(); ++j)
      EXPECT_EQ(one.logits(i, j), four.logits(i, j));
  EXPECT_GT(one.metrics.completed(), 0u);
}

TEST(ServerTest, OpenLoopOverloadShedsAndAccounts) {
  ServeFixture fx;
  ReplicaPool pool(*fx.plan, /*replicas=*/1);
  ServerConfig cfg;
  cfg.batch = BatchPolicy{.max_batch = 4, .max_delay_s = 50e-6};
  cfg.queue_capacity = 4;  // tiny bound: overload must shed
  Server server(pool, cfg);
  // Offer ~20x what one replica can serve.
  const OpenLoopLoad load{.qps = 80.0 / fx.plan->batchSeconds(),
                          .requests = 400,
                          .seed = 9};
  ServeResult r = server.RunOpenLoop(load);
  EXPECT_GT(r.metrics.rejected(), 0u);
  EXPECT_EQ(r.metrics.admitted() + r.metrics.rejected(), 400u);
  EXPECT_EQ(r.metrics.completed(), r.metrics.admitted());
  EXPECT_EQ(r.logits.rows(), 0u);  // no inputs -> timing only
}

// The exact shed point: a burst that lands well inside one batch time fills
// the replica's pipeline (one batch in flight on a copy plan, two on a
// streaming one), then the forming batch, then queue_capacity waiting
// requests; every later arrival is shed.
TEST(ServerTest, BurstShedsPastPipelineFormingBatchAndQueue) {
  Rng rng(5);
  nn::Sequential model = nn::BuildShl(Method::kButterfly, SmallShape(64), rng);
  nn::ForwardSpec spec = nn::ExportForward(model);

  auto run = [&](bool streaming) {
    auto plan = ModelPlan::Build(spec, ipu::Gc200(),
                                 PlanOptions{.max_batch = 4,
                                             .execute = false,
                                             .streaming = streaming});
    REPRO_REQUIRE(plan.ok(), "plan: %s", plan.status().message().c_str());
    ReplicaPool pool(*plan.value(), /*replicas=*/1);
    ServerConfig cfg;
    cfg.batch = BatchPolicy{.max_batch = 4, .max_delay_s = 50e-6};
    cfg.queue_capacity = 4;
    Server server(pool, cfg);
    return server.RunOpenLoop(
        OpenLoopLoad{.qps = 1e6 / plan.value()->batchSeconds(),
                     .requests = 40,
                     .seed = 3});
  };

  const ServeResult copy = run(false);
  EXPECT_EQ(copy.metrics.admitted(), 12u);  // 4 in flight + 4 forming + 4
  EXPECT_EQ(copy.metrics.rejected(), 28u);
  EXPECT_EQ(copy.metrics.completed(), 12u);
  const ServeResult stream = run(true);
  EXPECT_EQ(stream.metrics.admitted(), 16u);  // 8 in flight + 4 forming + 4
  EXPECT_EQ(stream.metrics.rejected(), 24u);
  EXPECT_EQ(stream.metrics.completed(), 16u);
}

TEST(ServerTest, ClosedLoopNeverRejects) {
  ServeFixture fx;
  ReplicaPool pool(*fx.plan, /*replicas=*/2);
  ServerConfig cfg;
  cfg.batch = BatchPolicy{.max_batch = 4, .max_delay_s = 50e-6};
  cfg.queue_capacity = 8;
  Server server(pool, cfg);
  const ClosedLoopLoad load{.clients = 8, .requests = 100, .think_s = 0.0};
  ServeResult r = server.RunClosedLoop(load, &fx.inputs);
  EXPECT_EQ(r.metrics.rejected(), 0u);  // backpressure contract
  EXPECT_EQ(r.metrics.admitted(), 100u);
  EXPECT_EQ(r.metrics.completed(), 100u);
  EXPECT_GT(r.metrics.meanOccupancy(), 1.0);
  // Every request's logits were replayed.
  ASSERT_EQ(r.logits.rows(), 100u);
}

// The numerics replay only runs on inputs it can copy: a 0-row feature
// matrix means no replay at all, and features wider than the model abort
// before the loop runs instead of writing past each batch's rows.
TEST(ServerTest, ZeroRowInputsServeEveryRequestWithoutReplay) {
  ServeFixture fx;
  ReplicaPool pool(*fx.plan, /*replicas=*/2);
  ServerConfig cfg;
  cfg.batch = BatchPolicy{.max_batch = 4, .max_delay_s = 50e-6};
  cfg.queue_capacity = 8;
  Server server(pool, cfg);
  const Matrix no_rows(0, 64);
  ServeResult r = server.RunClosedLoop(
      ClosedLoopLoad{.clients = 8, .requests = 40, .think_s = 0.0}, &no_rows);
  EXPECT_EQ(r.metrics.completed(), 40u);
  EXPECT_EQ(r.logits.rows(), 0u);
}

TEST(ServerDeathTest, InputsWiderThanTheModelDie) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServeFixture fx;
  ReplicaPool pool(*fx.plan, /*replicas=*/2);
  ServerConfig cfg;
  cfg.batch = BatchPolicy{.max_batch = 4, .max_delay_s = 50e-6};
  cfg.queue_capacity = 8;
  Server server(pool, cfg);
  const Matrix wide(16, 64 + 16);
  EXPECT_DEATH(server.RunClosedLoop(ClosedLoopLoad{.clients = 8,
                                                   .requests = 40,
                                                   .think_s = 0.0},
                                    &wide),
               "replay inputs have 80 features but slot 0's model takes 64");
}

// ---------------------------------------------------------------------------
// Edge cases sharpened by the streaming work

TEST(ServeMetricsTest, ZeroBatchesYieldZeroNotNan) {
  ServeMetrics m(8);
  EXPECT_EQ(m.batches(), 0u);
  EXPECT_DOUBLE_EQ(m.meanOccupancy(), 0.0);
  EXPECT_DOUBLE_EQ(m.paddingFraction(), 0.0);
  EXPECT_DOUBLE_EQ(m.overlappedHostSeconds(), 0.0);
}

TEST(MicroBatcherTest, EmptyBatcherDeadlineIsPositiveInfinity) {
  MicroBatcher b(BatchPolicy{.max_batch = 4, .max_delay_s = 100e-6});
  EXPECT_TRUE(std::isinf(b.Deadline()));
  EXPECT_GT(b.Deadline(), 0.0);
  // Ready() compares against that +infinity: never ready while empty.
  EXPECT_FALSE(b.Ready(0.0));
  EXPECT_FALSE(b.Ready(1e30));
}

TEST(MicroBatcherTest, ReadyIsBitExactAtTheDeadlineDouble) {
  // An awkward (arrival + delay) sum: the scheduler wakes at exactly
  // Deadline()'s double, so Ready must flip at that bit pattern, not an
  // epsilon later.
  MicroBatcher b(BatchPolicy{.max_batch = 8, .max_delay_s = 1e-4});
  b.Add(Request{0, 0.1, 0});
  const double deadline = b.Deadline();
  EXPECT_FALSE(b.Ready(std::nextafter(deadline, 0.0)));
  EXPECT_TRUE(b.Ready(deadline));
  EXPECT_TRUE(b.Ready(std::nextafter(deadline, 1.0)));
}

// ---------------------------------------------------------------------------
// Streaming ingress vs the synchronous copy baseline

TEST(ServerTest, StreamingPlanOutservesCopyPlanAndRecordsOverlap) {
  Rng rng(5);
  nn::Sequential model = nn::BuildShl(Method::kButterfly, SmallShape(64), rng);
  nn::ForwardSpec spec = nn::ExportForward(model);

  auto run = [&](bool streaming) {
    auto plan = ModelPlan::Build(spec, ipu::Gc200(),
                                 PlanOptions{.max_batch = 4,
                                             .execute = false,
                                             .streaming = streaming});
    REPRO_REQUIRE(plan.ok(), "plan: %s", plan.status().message().c_str());
    ReplicaPool pool(*plan.value(), /*replicas=*/2);
    ServerConfig cfg;
    cfg.batch = BatchPolicy{.max_batch = 4, .max_delay_s = 50e-6};
    // Two batches worth of clients per replica so the depth-2 FIFO fills.
    cfg.queue_capacity = 16;
    Server server(pool, cfg);
    return server.RunClosedLoop(
        ClosedLoopLoad{.clients = 16, .requests = 240, .think_s = 0.0});
  };

  const ServeResult stream = run(true);
  const ServeResult copy = run(false);
  EXPECT_GT(stream.metrics.overlappedHostSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(copy.metrics.overlappedHostSeconds(), 0.0);
  EXPECT_GT(stream.metrics.qps(), copy.metrics.qps());
}

TEST(ModelPlanTest, StreamingAndCopyPlansAgreeOnLogitsBitwise) {
  Rng rng(5);
  nn::Sequential model = nn::BuildShl(Method::kButterfly, SmallShape(64), rng);
  nn::ForwardSpec spec = nn::ExportForward(model);
  Matrix x(4, 64);
  Rng data_rng(13);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j)
      x(i, j) = float(data_rng.Uniform(-1.0, 1.0));

  auto logits = [&](bool streaming) {
    auto plan = ModelPlan::Build(
        spec, ipu::Gc200(),
        PlanOptions{.max_batch = 4, .streaming = streaming});
    REPRO_REQUIRE(plan.ok(), "plan: %s", plan.status().message().c_str());
    std::unique_ptr<ipu::Engine> engine = plan.value()->MakeReplica();
    return plan.value()->RunBatch(*engine, x);
  };

  const Matrix s = logits(true);
  const Matrix c = logits(false);
  ASSERT_EQ(s.rows(), c.rows());
  ASSERT_EQ(s.cols(), c.cols());
  for (std::size_t i = 0; i < s.rows(); ++i)
    for (std::size_t j = 0; j < s.cols(); ++j)
      EXPECT_EQ(s(i, j), c(i, j)) << "(" << i << ", " << j << ")";
}

TEST(ModelPlanTest, StreamProfileDecomposesBatchSeconds) {
  Rng rng(5);
  nn::Sequential model = nn::BuildShl(Method::kButterfly, SmallShape(64), rng);
  nn::ForwardSpec spec = nn::ExportForward(model);
  auto plan = ModelPlan::Build(spec, ipu::Gc200(),
                               PlanOptions{.max_batch = 4, .execute = false});
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  const ModelPlan::StreamProfile& p = plan.value()->streamProfile();
  EXPECT_TRUE(p.enabled);
  EXPECT_GT(p.in_s, 0.0);
  EXPECT_GT(p.compute_s, 0.0);
  EXPECT_GT(p.out_s, 0.0);
  // Cold end-to-end time is the un-overlapped sum of the three phases.
  EXPECT_NEAR(p.in_s + p.compute_s + p.out_s, plan.value()->batchSeconds(),
              1e-15);

  auto copy = ModelPlan::Build(spec, ipu::Gc200(),
                               PlanOptions{.max_batch = 4,
                                           .execute = false,
                                           .streaming = false});
  ASSERT_TRUE(copy.ok());
  const ModelPlan::StreamProfile& q = copy.value()->streamProfile();
  EXPECT_FALSE(q.enabled);
  EXPECT_DOUBLE_EQ(q.in_s, 0.0);
  EXPECT_DOUBLE_EQ(q.out_s, 0.0);
  EXPECT_DOUBLE_EQ(q.compute_s, copy.value()->batchSeconds());
}

}  // namespace
}  // namespace repro::serve
