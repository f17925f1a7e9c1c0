// Tests for the serve::ExecutionBackend surface introduced by the
// backend refactor:
//  * IpuBackend faithfully mirrors its ModelPlan/ReplicaPool (the Server's
//    pool ctor and backend ctor produce byte-identical metrics and bitwise
//    identical logits),
//  * gpu::GpuBackend's capacity model expresses the paper's crossover as
//    serving concurrency (dense leaves SMs free, butterfly owns the device),
//  * cluster::CostModelPlacer scores throughput per dollar and breaks ties
//    toward the IPU,
//  * a heterogeneous Router attributes batches to both substrates in the
//    metrics breakdown, which is omitted entirely when never registered,
//  * the event loop breaks equal-time ties exactly as pinned reference
//    schedules did, for the Server and for an autoscaling Router.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/placer.h"
#include "cluster/router.h"
#include "core/method.h"
#include "gpusim/arch.h"
#include "gpusim/gpu_backend.h"
#include "ipusim/arch.h"
#include "linalg/matrix.h"
#include "nn/export.h"
#include "nn/model.h"
#include "serve/backend.h"
#include "serve/metrics.h"
#include "serve/model_plan.h"
#include "serve/replica_pool.h"
#include "serve/server.h"
#include "util/rng.h"

namespace repro {
namespace {

using core::Method;

core::ShlShape SmallShape(std::size_t n) {
  core::ShlShape shape;
  shape.input = n;
  shape.hidden = n;
  shape.classes = 10;
  shape.pixelfly = core::PixelflyConfig{
      .n = n, .block_size = 16, .butterfly_size = 4, .low_rank = 16};
  return shape;
}

struct BackendFixture {
  nn::Sequential model;
  nn::ForwardSpec spec;
  std::unique_ptr<serve::ModelPlan> plan;
  Matrix inputs;

  explicit BackendFixture(Method method = Method::kButterfly,
                          std::size_t max_batch = 4)
      : model([&] {
          Rng rng(5);
          return nn::BuildShl(method, SmallShape(64), rng);
        }()) {
    spec = nn::ExportForward(model);
    auto built = serve::ModelPlan::Build(
        spec, ipu::Gc200(), serve::PlanOptions{.max_batch = max_batch});
    REPRO_REQUIRE(built.ok(), "fixture plan: %s",
                  built.status().message().c_str());
    plan = built.take();
    inputs = Matrix(16, 64);
    Rng data_rng(13);
    for (std::size_t i = 0; i < inputs.rows(); ++i)
      for (std::size_t j = 0; j < inputs.cols(); ++j)
        inputs(i, j) = float(data_rng.Uniform(-1.0, 1.0));
  }
};

// ---------------------------------------------------------------------------
// IpuBackend: the plan/pool surface behind the interface

TEST(IpuBackendTest, MirrorsPlanAndPool) {
  BackendFixture fx;
  serve::ReplicaPool pool(*fx.plan, /*replicas=*/2);
  serve::IpuBackend backend(*fx.plan, &pool);

  EXPECT_STREQ(backend.name(), "ipu");
  EXPECT_EQ(&backend.spec(), &fx.plan->spec());
  EXPECT_EQ(backend.maxBatch(), fx.plan->maxBatch());
  EXPECT_DOUBLE_EQ(backend.batchSeconds(), fx.plan->batchSeconds());
  EXPECT_EQ(backend.streamProfile().enabled,
            fx.plan->streamProfile().enabled);
  EXPECT_DOUBLE_EQ(backend.streamProfile().compute_s,
                   fx.plan->streamProfile().compute_s);
  EXPECT_EQ(backend.replicas(), pool.size());
  // No explicit capacity-probe result: per-device capacity falls back to
  // the attached pool's size.
  EXPECT_EQ(backend.maxReplicasPerDevice(), pool.size());
  EXPECT_TRUE(backend.canExecute());

  // An explicit probe result overrides the fallback without changing the
  // deployed replica count.
  serve::IpuBackend probed(*fx.plan, &pool, /*max_replicas_per_device=*/92);
  EXPECT_EQ(probed.maxReplicasPerDevice(), 92u);
  EXPECT_EQ(probed.replicas(), pool.size());

  // Scoring-only (no pool): the placer surface works, numerics do not.
  serve::IpuBackend scoring(*fx.plan, nullptr, 7);
  EXPECT_FALSE(scoring.canExecute());
  EXPECT_EQ(scoring.maxReplicasPerDevice(), 7u);
}

TEST(IpuBackendTest, ExecuteBatchMatchesPlanRunBatch) {
  BackendFixture fx;
  serve::ReplicaPool pool(*fx.plan, /*replicas=*/2);
  serve::IpuBackend backend(*fx.plan, &pool);

  Matrix x(4, 64);
  Rng data_rng(9);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j)
      x(i, j) = float(data_rng.Normal());

  Matrix via_backend = backend.ExecuteBatch(1, x);
  Matrix via_plan = fx.plan->RunBatch(pool.engine(1), x);
  ASSERT_EQ(via_backend.rows(), via_plan.rows());
  ASSERT_EQ(via_backend.cols(), via_plan.cols());
  for (std::size_t i = 0; i < via_backend.rows(); ++i)
    for (std::size_t j = 0; j < via_backend.cols(); ++j)
      EXPECT_EQ(via_backend(i, j), via_plan(i, j)) << i << ", " << j;
}

// The refactor's core observational contract: Server(pool, cfg) and
// Server(backend, cfg) are the same server -- metrics JSON byte for byte,
// logits bit for bit.
TEST(ServerBackendTest, PoolCtorAndBackendCtorAreByteIdentical) {
  BackendFixture fx;
  const serve::ClosedLoopLoad load{
      .clients = 8, .requests = 100, .think_s = 0.0};

  auto run = [&](bool via_backend) {
    serve::ReplicaPool pool(*fx.plan, /*replicas=*/2);
    serve::ServerConfig cfg;
    cfg.batch = serve::BatchPolicy{.max_batch = 4, .max_delay_s = 50e-6};
    cfg.queue_capacity = 8;
    if (via_backend) {
      serve::IpuBackend backend(*fx.plan, &pool);
      serve::Server server(backend, cfg);
      return server.RunClosedLoop(load, &fx.inputs);
    }
    serve::Server server(pool, cfg);
    return server.RunClosedLoop(load, &fx.inputs);
  };

  serve::ServeResult via_pool = run(false);
  serve::ServeResult via_backend = run(true);
  EXPECT_EQ(via_pool.metrics.ToJson(), via_backend.metrics.ToJson());
  ASSERT_EQ(via_pool.logits.rows(), via_backend.logits.rows());
  for (std::size_t i = 0; i < via_pool.logits.rows(); ++i)
    for (std::size_t j = 0; j < via_pool.logits.cols(); ++j)
      EXPECT_EQ(via_pool.logits(i, j), via_backend.logits(i, j));
  // Neither server registered a backend label, so the single-backend JSON
  // keeps its historical schema: no per-backend breakdown.
  EXPECT_EQ(via_pool.metrics.ToJson().find("\"backends\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// GpuBackend: roofline capacity

nn::ForwardSpec ExportSpec(Method method, std::size_t n, nn::Sequential* keep) {
  core::ShlShape shape;
  shape.input = n;
  shape.hidden = n;
  shape.classes = 10;
  shape.pixelfly = core::ScaledPixelflyConfig(n);
  Rng rng(21);
  *keep = nn::BuildShl(method, shape, rng);
  return nn::ExportForward(*keep);
}

TEST(GpuBackendTest, CapacityAsymmetryIsTheCrossover) {
  // At n = 1024 / batch 32, the dense forward's widest kernel is the
  // 32-block bias/ReLU elementwise, so several batches share the device;
  // the butterfly's 512-block batched 2x2 GEMM owns it outright. This is
  // the paper's GPU-side crossover expressed as serving concurrency.
  nn::Sequential dense_m, bfly_m;
  nn::ForwardSpec dense = ExportSpec(Method::kBaseline, 1024, &dense_m);
  nn::ForwardSpec bfly = ExportSpec(Method::kButterfly, 1024, &bfly_m);

  gpu::GpuBackend dense_b(dense, gpu::A30());
  gpu::GpuBackend bfly_b(bfly, gpu::A30());

  EXPECT_STREQ(dense_b.name(), "gpu");
  EXPECT_GT(dense_b.concurrentBatches(), 1u);
  EXPECT_EQ(bfly_b.concurrentBatches(), 1u);
  EXPECT_EQ(bfly_b.replicas(), 1u);  // concurrency-bound, not HBM-bound
  EXPECT_GT(bfly_b.memReplicas(), 1u);

  // Timing-only: the DES must never replay numerics through it.
  EXPECT_FALSE(dense_b.canExecute());
  EXPECT_DEATH(dense_b.ExecuteBatch(0, Matrix(1, 1024)), "timing-only");
}

TEST(GpuBackendTest, StreamProfileSumsToBatchSeconds) {
  nn::Sequential m;
  nn::ForwardSpec spec = ExportSpec(Method::kBaseline, 256, &m);
  gpu::GpuBackend b(spec, gpu::A30());
  const serve::StreamProfile& p = b.streamProfile();
  EXPECT_TRUE(p.enabled);
  EXPECT_GT(p.in_s, 0.0);
  EXPECT_GT(p.compute_s, 0.0);
  EXPECT_GT(p.out_s, 0.0);
  EXPECT_DOUBLE_EQ(b.batchSeconds(), p.in_s + p.compute_s + p.out_s);
  // Weights dominate the per-replica footprint at batch 32.
  EXPECT_GT(b.replicaMemoryBytes(), b.weightBytes());
}

// ---------------------------------------------------------------------------
// CostModelPlacer

// A synthetic backend with fully dialed-in economics, so the placer's
// arithmetic is pinned independent of any roofline or BSP model.
class FakeBackend final : public serve::ExecutionBackend {
 public:
  FakeBackend(const char* name, double batch_s, std::size_t replicas,
              std::size_t max_batch = 8)
      : name_(name), batch_s_(batch_s), replicas_(replicas),
        max_batch_(max_batch) {
    profile_.enabled = false;
    profile_.compute_s = batch_s;
    spec_.input = 16;
    spec_.hidden = 16;
    spec_.classes = 4;
  }

  serve::StreamProfile& profile() { return profile_; }

  const char* name() const override { return name_; }
  const nn::ForwardSpec& spec() const override { return spec_; }
  std::size_t maxBatch() const override { return max_batch_; }
  double batchSeconds() const override { return batch_s_; }
  const serve::StreamProfile& streamProfile() const override {
    return profile_;
  }
  std::size_t replicas() const override { return replicas_; }
  std::size_t maxReplicasPerDevice() const override { return replicas_; }
  std::size_t replicaMemoryBytes() const override { return 1024; }
  bool canExecute() const override { return false; }
  Matrix ExecuteBatch(std::size_t, const Matrix&) override {
    REPRO_REQUIRE(false, "FakeBackend is timing-only");
    return Matrix();
  }

 private:
  const char* name_;
  double batch_s_;
  std::size_t replicas_;
  std::size_t max_batch_;
  serve::StreamProfile profile_;
  nn::ForwardSpec spec_;
};

TEST(PlacerTest, ScoreIsThroughputPerDollar) {
  cluster::CostModelPlacer placer;
  // 10 replicas x batch 8 / 1 ms = 80k QPS per device.
  FakeBackend b("ipu", 1e-3, 10);
  cluster::BackendScore s = placer.Score(b, /*usd_per_hour=*/2.0);
  EXPECT_DOUBLE_EQ(s.qps_per_device, 80000.0);
  EXPECT_DOUBLE_EQ(s.score, 40000.0);
  // $2/h at 80k QPS: 2 / (80000 * 3600) dollars per request.
  EXPECT_NEAR(s.usd_per_mreq, 2.0 / (80000.0 * 3600.0) * 1e6, 1e-12);
}

TEST(PlacerTest, StreamingCadenceUsesBottleneckPhase) {
  cluster::CostModelPlacer placer;
  FakeBackend b("gpu", 3e-3, 4);
  b.profile().enabled = true;
  b.profile().in_s = 0.5e-3;
  b.profile().compute_s = 2e-3;  // bottleneck phase
  b.profile().out_s = 0.5e-3;
  cluster::BackendScore s = placer.Score(b, 1.0);
  // Overlapped pipeline: cadence is the widest phase, not the 3 ms sum.
  EXPECT_DOUBLE_EQ(s.qps_per_device, 4.0 * 8.0 / 2e-3);
}

TEST(PlacerTest, DecideFollowsScoreAndTiesGoToIpu) {
  cluster::CostModelPlacer placer(
      cluster::PlacerConfig{.ipu_usd_per_hour = 2.0, .gpu_usd_per_hour = 1.0});
  // IPU: 20 reps / 1 ms / $2 -> score 80k. GPU: 4 reps / 1 ms / $1 -> 32k.
  FakeBackend ipu("ipu", 1e-3, 20);
  FakeBackend gpu("gpu", 1e-3, 4);
  cluster::PlacementDecision d = placer.Decide(ipu, gpu, "Butterfly", 1024);
  EXPECT_EQ(d.winner, "ipu");
  EXPECT_DOUBLE_EQ(d.margin, 2.5);
  EXPECT_EQ(d.method, "Butterfly");
  EXPECT_EQ(d.n, 1024u);

  // Flip the economics: 2 IPU replicas score 8k, GPU keeps 32k.
  FakeBackend small_ipu("ipu", 1e-3, 2);
  cluster::PlacementDecision g = placer.Decide(small_ipu, gpu, "Baseline", 1024);
  EXPECT_EQ(g.winner, "gpu");
  EXPECT_DOUBLE_EQ(g.margin, 4.0);

  // Equal economics favor the substrate that can also replay numerics.
  FakeBackend tie_ipu("ipu", 1e-3, 8);   // 8 / 1e-3 / 2 = 32k
  cluster::PlacementDecision t = placer.Decide(tie_ipu, gpu, "Baseline", 256);
  EXPECT_EQ(t.winner, "ipu");
  EXPECT_DOUBLE_EQ(t.margin, 1.0);

  // The decision JSON carries both scorecards.
  const std::string json = d.ToJson();
  EXPECT_NE(json.find("\"winner\": \"ipu\""), std::string::npos);
  EXPECT_NE(json.find("\"ipu\": {"), std::string::npos);
  EXPECT_NE(json.find("\"gpu\": {"), std::string::npos);
}

// The placer scores a streaming IPU plan at its pipelined cadence (the
// widest stream phase per replica); the routed cluster it places into must
// deliver that cadence, not the unpipelined batchSeconds().
TEST(PlacerTest, RoutedClosedLoopDeliversTheScoredCadence) {
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kReplicas = 4;
  for (Method method :
       {Method::kBaseline, Method::kButterfly, Method::kPixelfly}) {
    Rng rng(5);
    nn::Sequential model = nn::BuildShl(method, SmallShape(64), rng);
    const nn::ForwardSpec spec = nn::ExportForward(model);
    auto plan = serve::ModelPlan::Build(
        spec, ipu::Gc200(),
        serve::PlanOptions{.max_batch = kBatch, .execute = false});
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    ASSERT_TRUE(plan.value()->streamProfile().enabled);
    serve::ReplicaPool pool(*plan.value(), kReplicas);
    serve::IpuBackend backend(*plan.value(), &pool, kReplicas);
    const double predicted =
        cluster::CostModelPlacer().Score(backend, 1.0).qps_per_device;

    const std::size_t clients = 2 * kReplicas * kBatch;
    cluster::RouterConfig rc;
    rc.batch = serve::BatchPolicy{.max_batch = kBatch, .max_delay_s = 200e-6};
    rc.queue_capacity = clients;
    cluster::Router router({&backend}, rc);
    const double qps =
        router
            .RunClosedLoop(serve::ClosedLoopLoad{
                .clients = clients, .requests = 8 * clients, .think_s = 0.0})
            .metrics.qps();
    EXPECT_NEAR(qps / predicted, 1.0, 0.01) << core::MethodName(method);
  }
}

// ---------------------------------------------------------------------------
// Event loop: the equal-time tie order
//
// FakeBackend phases set to exact binary fractions make completions, flush
// deadlines, re-issued arrivals and autoscaler ticks land on bit-equal
// times, so the loop's tie-break (event time, then creation order) decides
// every schedule below. The reference digests were captured from the loop
// that kept one heap event per request; letting any equal-time event jump
// the queue moves them.

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// FNV-1a of `v`'s eight little-endian bytes, continued from `h`.
std::uint64_t Fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// One run's schedule: every latency's bits in completion order, then the
// batch count and the occupancy histogram.
std::uint64_t FoldSchedule(std::uint64_t h, const serve::ServeMetrics& m) {
  for (double latency : m.latencies()) {
    h = Fold(h, std::bit_cast<std::uint64_t>(latency));
  }
  h = Fold(h, m.batches());
  for (std::size_t count : m.occupancyHist()) h = Fold(h, count);
  return h;
}

// Copy ingress computes for 1 s; streaming adds 0.25 s links on each side.
void SetTiePhases(FakeBackend& backend, bool streaming) {
  serve::StreamProfile& p = backend.profile();
  p.enabled = streaming;
  p.in_s = streaming ? 0.25 : 0.0;
  p.compute_s = 1.0;
  p.out_s = streaming ? 0.25 : 0.0;
}

constexpr double kTieThink[] = {0.0, 0.25, 0.5, 1.0, 1.5, 2.0};

TEST(EventLoopTieTest, ServerClosedLoopsKeepTheReferenceSchedules) {
  // One digest per (ingress, think_s), each over 36 runs: max_delay x
  // replicas x clients.
  constexpr std::uint64_t kWant[2][std::size(kTieThink)] = {
      {0xa919aa54e0090fdcull, 0xc50ac2b76919e7d1ull,
       0xf780cc3c1e54a29bull, 0xda27c4a000e79507ull,
       0x48aff261a341b6f3ull, 0xd82d0416a4733153ull},
      {0xfc8e863fcc140decull, 0x88eb972e1d9d8a5aull,
       0x1533df7e05f32f34ull, 0x0379bc015e5d6696ull,
       0xc585aa8de6987057ull, 0xf62dc1338b3001c3ull}};
  for (int streaming = 0; streaming < 2; ++streaming) {
    for (std::size_t t = 0; t < std::size(kTieThink); ++t) {
      std::uint64_t h = kFnvBasis;
      for (double delay : {0.0, 0.25, 0.5, 0.75}) {
        for (std::size_t replicas : {1, 2, 3}) {
          for (std::size_t clients : {5, 7, 12}) {
            FakeBackend backend("ipu", 1.0, replicas, /*max_batch=*/4);
            SetTiePhases(backend, streaming == 1);
            serve::ServerConfig cfg;
            cfg.batch = serve::BatchPolicy{.max_batch = 4,
                                           .max_delay_s = delay};
            cfg.queue_capacity = clients;
            serve::Server server(backend, cfg);
            const serve::ServeMetrics m =
                server
                    .RunClosedLoop(serve::ClosedLoopLoad{
                        .clients = clients,
                        .requests = 200,
                        .think_s = kTieThink[t]})
                    .metrics;
            ASSERT_EQ(m.completed(), 200u);
            h = FoldSchedule(h, m);
          }
        }
      }
      EXPECT_EQ(h, kWant[streaming][t])
          << (streaming == 1 ? "streaming" : "copy") << ", think_s "
          << kTieThink[t];
    }
  }
}

TEST(EventLoopTieTest, AutoscalingRouterKeepsTheReferenceSchedule) {
  // Two streaming chips; the autoscaler ticks every 0.5 s, on the same
  // binary grid as every phase, so ticks tie with completions and arrivals.
  FakeBackend chip0("ipu", 1.0, 2, /*max_batch=*/4);
  FakeBackend chip1("ipu", 1.0, 2, /*max_batch=*/4);
  SetTiePhases(chip0, true);
  SetTiePhases(chip1, true);
  cluster::RouterConfig rc;
  rc.batch = serve::BatchPolicy{.max_batch = 4, .max_delay_s = 0.25};
  rc.queue_capacity = 12;
  rc.autoscale = cluster::AutoscalePolicy{.enabled = true,
                                          .min_chips = 1,
                                          .max_chips = 2,
                                          .initial_chips = 1,
                                          .eval_interval_s = 0.5,
                                          .up_outstanding_per_chip = 8.0,
                                          .down_outstanding_per_chip = 4.0};
  cluster::Router router(
      std::vector<serve::ExecutionBackend*>{&chip0, &chip1}, rc);
  std::uint64_t h = kFnvBasis;
  std::size_t ups = 0, downs = 0;
  for (double think : kTieThink) {
    const cluster::ClusterResult r = router.RunClosedLoop(
        serve::ClosedLoopLoad{.clients = 12, .requests = 200, .think_s = think});
    ASSERT_EQ(r.metrics.completed(), 200u);
    h = FoldSchedule(h, r.metrics.aggregate());
    for (std::size_t c : r.metrics.routedPerChip()) h = Fold(h, c);
    h = Fold(h, r.metrics.scaleUps());
    h = Fold(h, r.metrics.scaleDowns());
    ups += r.metrics.scaleUps();
    downs += r.metrics.scaleDowns();
  }
  EXPECT_GT(ups, 0u);
  EXPECT_GT(downs, 0u);
  EXPECT_EQ(h, 0xe4876e504c61ab65ull);
}

// ---------------------------------------------------------------------------
// Heterogeneous cluster: per-backend metrics breakdown

TEST(HeterogeneousRouterTest, MetricsBreakDownByBackend) {
  BackendFixture fx;
  serve::ReplicaPool pool(*fx.plan, /*replicas=*/2);
  serve::IpuBackend ipu_b(*fx.plan, &pool);
  gpu::GpuBackend gpu_b(fx.spec, gpu::A30(),
                        gpu::GpuBackendOptions{.max_batch = 4});

  cluster::RouterConfig rc;
  rc.batch = serve::BatchPolicy{.max_batch = 4, .max_delay_s = 50e-6};
  rc.queue_capacity = 16;
  cluster::Router router({&ipu_b, &gpu_b}, rc);
  ASSERT_EQ(router.numChips(), 2u);
  EXPECT_STREQ(router.backend(0).name(), "ipu");
  EXPECT_STREQ(router.backend(1).name(), "gpu");

  const serve::ClosedLoopLoad load{
      .clients = 8, .requests = 120, .think_s = 0.0};
  cluster::ClusterResult r = router.RunClosedLoop(load, &fx.inputs);
  EXPECT_EQ(r.metrics.completed(), 120u);
  // Both substrates served traffic, and the aggregate JSON attributes it.
  const std::string json = r.metrics.ToJson();
  EXPECT_NE(json.find("\"backends\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"backend\": \"ipu\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"backend\": \"gpu\""), std::string::npos) << json;
  EXPECT_GT(r.metrics.completedPerChip()[0], 0u);
  EXPECT_GT(r.metrics.completedPerChip()[1], 0u);
  // The GPU slot is timing-only, so the cluster skips the numerics replay
  // entirely rather than replaying half the requests.
  EXPECT_EQ(r.logits.rows(), 0u);
}

TEST(ServeMetricsTest, BackendBreakdownOnlyWhenRegistered) {
  serve::ServeMetrics m(4);
  m.RecordAdmitted();
  ASSERT_TRUE(m.RecordBatch(2));
  m.RecordCompletion(1e-3, 1e-4);
  m.Finalize(1.0);
  // Nothing registered: historical single-backend schema, byte for byte.
  EXPECT_EQ(m.ToJson().find("\"backends\""), std::string::npos);

  serve::ServeMetrics b(4);
  const std::size_t ipu_row = b.RegisterBackend("ipu");
  const std::size_t gpu_row = b.RegisterBackend("gpu");
  EXPECT_NE(ipu_row, gpu_row);
  // Re-registering a label returns the existing row (two IPU chips share).
  EXPECT_EQ(b.RegisterBackend("ipu"), ipu_row);
  EXPECT_EQ(b.registeredBackends(), 2u);
  ASSERT_TRUE(b.RecordBatchFor(ipu_row, 3));
  ASSERT_TRUE(b.RecordBatchFor(gpu_row, 4));
  ASSERT_TRUE(b.RecordBatchFor(ipu_row, 1));
  b.Finalize(1.0);
  EXPECT_EQ(b.batches(), 3u);  // per-backend batches land in the aggregate
  const std::string json = b.ToJson();
  EXPECT_NE(json.find("\"backends\": ["), std::string::npos);
  EXPECT_NE(json.find("\"backend\": \"ipu\""), std::string::npos);
  EXPECT_NE(json.find("\"batches\": 2"), std::string::npos);  // ipu row
}

}  // namespace
}  // namespace repro
