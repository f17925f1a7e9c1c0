// Tests for the cluster serving fabric (src/cluster): LinkFabric collective
// algebra, consistent-hash ring stability, router placement determinism and
// backpressure, sharded-vs-unsharded logit parity, the autoscaler, the
// cluster determinism contract (metrics + logits invariant to host threads),
// and the one event loop (a 1-chip, zero-fabric Router is the Server).
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/link_fabric.h"
#include "cluster/router.h"
#include "cluster/shard_plan.h"
#include "core/device_time.h"
#include "core/method.h"
#include "ipusim/arch.h"
#include "linalg/matrix.h"
#include "nn/export.h"
#include "nn/model.h"
#include "serve/model_plan.h"
#include "serve/replica_pool.h"
#include "serve/server.h"
#include "util/bitops.h"
#include "util/rng.h"

namespace repro::cluster {
namespace {

using core::Method;

// ---------------------------------------------------------------------------
// LinkFabric algebra

TEST(LinkFabricTest, AllReduceIsTwoReduceScatters) {
  // Reduce-scatter, then an allgather that costs the same.
  const ipu::LinkFabric fabric(
      ipu::LinkFabricConfig{.num_ipus = 8,
                            .link_bytes_per_sec = 100e9,
                            .link_latency_sec = 1e-6});
  const std::size_t bytes = 1 << 20;
  EXPECT_NEAR(2.0 * fabric.RingReduceScatterSeconds(bytes),
              fabric.RingAllReduceSeconds(bytes), 1e-15);
}

TEST(LinkFabricTest, RingHopsAreShortestPath) {
  const ipu::LinkFabric fabric(ipu::LinkFabricConfig{.num_ipus = 8});
  EXPECT_EQ(fabric.RingHops(0, 0), 0u);
  EXPECT_EQ(fabric.RingHops(0, 1), 1u);
  EXPECT_EQ(fabric.RingHops(0, 4), 4u);  // antipode
  EXPECT_EQ(fabric.RingHops(0, 7), 1u);  // wraps backwards
  EXPECT_EQ(fabric.RingHops(6, 1), 3u);
}

TEST(LinkFabricTest, PairwiseExchangeScalesWithDistance) {
  const ipu::LinkFabric fabric(ipu::LinkFabricConfig{.num_ipus = 8});
  const std::size_t bytes = 1 << 16;
  const double d1 = fabric.PairwiseExchangeSeconds(bytes, 1);
  const double d2 = fabric.PairwiseExchangeSeconds(bytes, 2);
  const double d4 = fabric.PairwiseExchangeSeconds(bytes, 4);
  EXPECT_NEAR(d2, 2.0 * d1, 1e-15);
  EXPECT_NEAR(d4, 4.0 * d1, 1e-15);
  // Distance 6 wraps: shortest path is 2 hops.
  EXPECT_EQ(fabric.PairwiseExchangeSeconds(bytes, 6), d2);
  // A single-chip fabric is free.
  const ipu::LinkFabric one(ipu::LinkFabricConfig{.num_ipus = 1});
  EXPECT_EQ(one.RingAllReduceSeconds(bytes), 0.0);
}

TEST(LinkFabricTest, AllReduceStepsCountAndBytes) {
  // bytes x hops algebra of the traced decomposition: 2(p-1) pipeline
  // steps, each carrying one 1/p chunk over one link.
  const std::size_t p = 4;
  const ipu::LinkFabric fabric(ipu::LinkFabricConfig{.num_ipus = p});
  const std::size_t bytes = 65576;
  const std::vector<ipu::FabricStep> steps = fabric.RingAllReduceSteps(bytes);
  ASSERT_EQ(steps.size(), 2 * (p - 1));
  double sum = 0.0;
  for (const ipu::FabricStep& s : steps) {
    EXPECT_EQ(s.bytes, CeilDiv(bytes, p));
    EXPECT_EQ(s.hops, 1u);
    sum += s.seconds;
  }
  // The step decomposition reproduces the closed-form cost (up to the
  // double arithmetic of summing identical terms).
  EXPECT_NEAR(sum, fabric.RingAllReduceSeconds(bytes),
              1e-12 * fabric.RingAllReduceSeconds(bytes));
}

// ---------------------------------------------------------------------------
// HashRing

TEST(HashRingTest, RemovalOnlyRemapsTheDepartingChipsKeys) {
  HashRing ring(64);
  for (std::size_t c = 0; c < 4; ++c) ring.AddChip(c);
  EXPECT_EQ(ring.chips(), 4u);

  constexpr std::size_t kKeys = 2000;
  std::vector<std::size_t> before(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) before[k] = ring.Route(k);

  ring.RemoveChip(2);
  EXPECT_EQ(ring.chips(), 3u);
  std::size_t moved = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    const std::size_t after = ring.Route(k);
    if (before[k] == 2) {
      EXPECT_NE(after, 2u);
      ++moved;
    } else {
      EXPECT_EQ(after, before[k]) << "key " << k << " moved needlessly";
    }
  }
  EXPECT_GT(moved, 0u);  // chip 2 did own some keys

  // Re-adding restores the exact original mapping (points are a pure
  // function of chip id).
  ring.AddChip(2);
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(ring.Route(k), before[k]);
  }
}

TEST(HashRingTest, EveryChipOwnsKeys) {
  HashRing ring(64);
  for (std::size_t c = 0; c < 8; ++c) ring.AddChip(c);
  std::vector<std::size_t> counts(8, 0);
  for (std::size_t k = 0; k < 4000; ++k) ++counts[ring.Route(k)];
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_GT(counts[c], 0u) << "chip " << c << " owns no keys";
  }
}

// ---------------------------------------------------------------------------
// Router (timing-only plans: scheduling without numerics)

core::ShlShape SmallShape(std::size_t n, std::size_t classes = 10) {
  core::ShlShape shape;
  shape.input = n;
  shape.hidden = n;
  shape.classes = classes;
  return shape;
}

std::unique_ptr<serve::ModelPlan> TimingPlan(std::size_t n,
                                             std::size_t max_batch) {
  Rng rng(41);
  nn::Sequential model = nn::BuildShl(Method::kButterfly, SmallShape(n), rng);
  nn::ForwardSpec spec = nn::ExportForward(model);
  auto plan = serve::ModelPlan::Build(
      spec, ipu::Gc200(),
      serve::PlanOptions{.max_batch = max_batch, .execute = false});
  EXPECT_TRUE(plan.ok()) << plan.status().message();
  return std::move(plan.value());
}

struct PoolSet {
  std::vector<std::unique_ptr<serve::ReplicaPool>> own;
  std::vector<serve::ReplicaPool*> ptrs;
};

PoolSet MakePools(const serve::ModelPlan& plan, std::size_t chips,
                  std::size_t replicas) {
  PoolSet set;
  for (std::size_t c = 0; c < chips; ++c) {
    set.own.push_back(std::make_unique<serve::ReplicaPool>(plan, replicas));
    set.ptrs.push_back(set.own.back().get());
  }
  return set;
}

TEST(RouterTest, LeastLoadedTieBreaksToLowestChip) {
  // One closed-loop client: every request sees all chips idle, so the
  // deterministic tie-break routes everything to chip 0.
  auto plan = TimingPlan(64, 8);
  PoolSet pools = MakePools(*plan, 4, 1);
  RouterConfig rc;
  rc.placement = Placement::kLeastLoaded;
  rc.batch = serve::BatchPolicy{.max_batch = 8, .max_delay_s = 0.0};
  Router router(pools.ptrs, rc);
  ClusterResult res = router.RunClosedLoop(
      serve::ClosedLoopLoad{.clients = 1, .requests = 12, .think_s = 0.0});
  EXPECT_EQ(res.metrics.completed(), 12u);
  EXPECT_EQ(res.metrics.routedPerChip(),
            (std::vector<std::size_t>{12, 0, 0, 0}));
}

TEST(RouterTest, LeastLoadedSpreadsABurst) {
  auto plan = TimingPlan(64, 8);
  PoolSet pools = MakePools(*plan, 4, 1);
  RouterConfig rc;
  rc.placement = Placement::kLeastLoaded;
  rc.batch = serve::BatchPolicy{.max_batch = 8, .max_delay_s = 200e-6};
  rc.queue_capacity = 32;
  Router router(pools.ptrs, rc);
  ClusterResult res = router.RunClosedLoop(
      serve::ClosedLoopLoad{.clients = 32, .requests = 96, .think_s = 0.0});
  EXPECT_EQ(res.metrics.completed(), 96u);
  EXPECT_EQ(res.metrics.rejected(), 0u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_GT(res.metrics.routedPerChip()[c], 0u) << "chip " << c;
  }
}

TEST(RouterTest, ConsistentHashRoutesAndCompletes) {
  auto plan = TimingPlan(64, 8);
  PoolSet pools = MakePools(*plan, 4, 1);
  RouterConfig rc;
  rc.placement = Placement::kConsistentHash;
  rc.batch = serve::BatchPolicy{.max_batch = 8, .max_delay_s = 200e-6};
  rc.queue_capacity = 64;
  Router router(pools.ptrs, rc);
  ClusterResult res = router.RunClosedLoop(
      serve::ClosedLoopLoad{.clients = 32, .requests = 128, .think_s = 0.0});
  EXPECT_EQ(res.metrics.completed(), 128u);
  std::size_t sum = 0;
  std::size_t chips_used = 0;
  for (std::size_t c : res.metrics.routedPerChip()) {
    sum += c;
    chips_used += c > 0 ? 1 : 0;
  }
  EXPECT_EQ(sum, 128u);
  EXPECT_GT(chips_used, 1u);  // the hash spreads distinct request ids
}

TEST(RouterTest, PerChipBackpressureLoadSheds) {
  auto plan = TimingPlan(64, 8);
  PoolSet pools = MakePools(*plan, 2, 1);
  RouterConfig rc;
  rc.batch = serve::BatchPolicy{.max_batch = 8, .max_delay_s = 200e-6};
  rc.queue_capacity = 4;  // tiny per-chip admission bound
  Router router(pools.ptrs, rc);
  // A near-simultaneous open-loop burst far beyond 2 chips x 4 slots.
  ClusterResult res = router.RunOpenLoop(
      serve::OpenLoopLoad{.qps = 1e9, .requests = 200, .seed = 3});
  EXPECT_GT(res.metrics.rejected(), 0u);
  EXPECT_EQ(res.metrics.admitted() + res.metrics.rejected(), 200u);
  std::size_t per_chip = 0;
  for (std::size_t c : res.metrics.rejectedPerChip()) per_chip += c;
  EXPECT_EQ(per_chip, res.metrics.rejected());
}

TEST(RouterTest, AutoscalerScalesUpUnderLoad) {
  auto plan = TimingPlan(64, 8);
  const double service_s = plan->batchSeconds();
  PoolSet pools = MakePools(*plan, 4, 1);
  RouterConfig rc;
  rc.batch = serve::BatchPolicy{.max_batch = 8, .max_delay_s = 200e-6};
  rc.queue_capacity = 256;
  rc.autoscale.enabled = true;
  rc.autoscale.min_chips = 1;
  rc.autoscale.max_chips = 4;
  rc.autoscale.eval_interval_s = 2.0 * service_s;
  rc.autoscale.up_outstanding_per_chip = 8.0;
  rc.autoscale.down_outstanding_per_chip = 1.0;
  Router router(pools.ptrs, rc);
  // Overload a 1-chip cluster: arrivals outpace one chip's batch rate.
  const double qps = 3.0 * 8.0 / service_s;
  ClusterResult res = router.RunOpenLoop(
      serve::OpenLoopLoad{.qps = qps, .requests = 600, .seed = 1});
  EXPECT_GT(res.metrics.scaleUps(), 0u);
  EXPECT_GE(res.metrics.finalActiveChips(), 1u);
  EXPECT_LE(res.metrics.finalActiveChips(), 4u);
  EXPECT_EQ(res.metrics.completed() + res.metrics.rejected(), 600u);
}

TEST(RouterTest, AutoscalerDrainsIdleChipsUnderSparseLoad) {
  auto plan = TimingPlan(64, 8);
  const double service_s = plan->batchSeconds();
  PoolSet pools = MakePools(*plan, 4, 1);
  RouterConfig rc;
  rc.batch = serve::BatchPolicy{.max_batch = 8, .max_delay_s = 200e-6};
  rc.queue_capacity = 256;
  rc.autoscale.enabled = true;
  rc.autoscale.min_chips = 1;
  rc.autoscale.max_chips = 4;
  rc.autoscale.initial_chips = 4;  // start wide, let the load justify it
  rc.autoscale.eval_interval_s = 2.0 * service_s;
  rc.autoscale.up_outstanding_per_chip = 8.0;
  rc.autoscale.down_outstanding_per_chip = 1.0;
  Router router(pools.ptrs, rc);
  // Two closed-loop clients with long think times: far below one chip's
  // capacity, so the mean outstanding per chip sits under the scale-down
  // threshold at every evaluation.
  ClusterResult res = router.RunClosedLoop(
      serve::ClosedLoopLoad{.clients = 2,
                            .requests = 60,
                            .think_s = 4.0 * service_s});
  EXPECT_GT(res.metrics.scaleDowns(), 0u);
  EXPECT_LT(res.metrics.finalActiveChips(), 4u);
  EXPECT_GE(res.metrics.finalActiveChips(), 1u);
  EXPECT_EQ(res.metrics.completed(), 60u);
}

TEST(RouterTest, ClusterMetricsJsonExtendsAggregate) {
  auto plan = TimingPlan(64, 8);
  PoolSet pools = MakePools(*plan, 2, 1);
  RouterConfig rc;
  rc.batch = serve::BatchPolicy{.max_batch = 8, .max_delay_s = 200e-6};
  Router router(pools.ptrs, rc);
  ClusterResult res = router.RunClosedLoop(
      serve::ClosedLoopLoad{.clients = 8, .requests = 24, .think_s = 0.0});
  const std::string js = res.metrics.ToJson();
  for (const char* key :
       {"\"qps\":", "\"latency_p99_us\":", "\"occupancy_hist\":",
        "\"chips\":", "\"final_active_chips\":", "\"scale_ups\":",
        "\"routed_per_chip\":", "\"completed_per_chip\":"}) {
    EXPECT_NE(js.find(key), std::string::npos) << "missing " << key;
  }
}

// ---------------------------------------------------------------------------
// Determinism contract: metrics and replayed logits are invariant to the
// replay thread count.

TEST(RouterTest, MetricsAndLogitsBitwiseIdenticalAcrossHostThreads) {
  const std::size_t n = 64;
  const std::size_t max_batch = 8;
  Rng rng(41);
  nn::Sequential model = nn::BuildShl(Method::kButterfly, SmallShape(n), rng);
  nn::ForwardSpec spec = nn::ExportForward(model);
  auto plan = serve::ModelPlan::Build(
      spec, ipu::Gc200(), serve::PlanOptions{.max_batch = max_batch});
  ASSERT_TRUE(plan.ok()) << plan.status().message();

  Matrix inputs(max_batch, n);
  Rng data_rng(7);
  data_rng.FillUniform(inputs.data(), inputs.rows() * inputs.cols(), -1.0f,
                       1.0f);

  auto run = [&](std::size_t host_threads) {
    PoolSet pools = MakePools(*plan.value(), 2, 1);
    RouterConfig rc;
    rc.batch = serve::BatchPolicy{.max_batch = max_batch,
                                  .max_delay_s = 200e-6};
    rc.host_threads = host_threads;
    Router router(pools.ptrs, rc);
    return router.RunClosedLoop(
        serve::ClosedLoopLoad{.clients = 16, .requests = 48, .think_s = 0.0},
        &inputs);
  };
  ClusterResult a = run(1);
  ClusterResult b = run(4);
  EXPECT_EQ(a.metrics.ToJson(), b.metrics.ToJson());
  ASSERT_EQ(a.logits.rows(), b.logits.rows());
  ASSERT_EQ(a.logits.cols(), b.logits.cols());
  EXPECT_EQ(std::memcmp(a.logits.data(), b.logits.data(),
                        a.logits.rows() * a.logits.cols() * sizeof(float)),
            0);
  EXPECT_EQ(a.metrics.completed(), 48u);
}

// ---------------------------------------------------------------------------
// One event loop: serve::Server is the 1-chip, zero-fabric Router

std::uint64_t Bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void ExpectSameServer(const serve::ServeMetrics& a,
                      const serve::ServeMetrics& b) {
  ASSERT_EQ(a.latencies().size(), b.latencies().size());
  for (std::size_t i = 0; i < a.latencies().size(); ++i) {
    ASSERT_EQ(Bits(a.latencies()[i]), Bits(b.latencies()[i]))
        << "completion " << i;
  }
  EXPECT_EQ(a.occupancyHist(), b.occupancyHist());
  EXPECT_EQ(a.batches(), b.batches());
  EXPECT_EQ(a.admitted(), b.admitted());
  EXPECT_EQ(a.rejected(), b.rejected());
  EXPECT_EQ(Bits(a.horizonSeconds()), Bits(b.horizonSeconds()));
  EXPECT_EQ(Bits(a.meanQueueDelay()), Bits(b.meanQueueDelay()));
  EXPECT_EQ(Bits(a.overlappedHostSeconds()), Bits(b.overlappedHostSeconds()));
}

// (streaming plan, closed loop)
class OneChipRouterTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(OneChipRouterTest, IsTheServer) {
  const auto [streaming, closed_loop] = GetParam();
  const std::size_t n = 64;
  const std::size_t max_batch = 8;
  const std::size_t replicas = 2;
  Rng rng(41);
  nn::Sequential model = nn::BuildShl(Method::kButterfly, SmallShape(n), rng);
  nn::ForwardSpec spec = nn::ExportForward(model);
  auto plan = serve::ModelPlan::Build(
      spec, ipu::Gc200(),
      serve::PlanOptions{.max_batch = max_batch, .streaming = streaming});
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  ASSERT_EQ(plan.value()->streamProfile().enabled, streaming);
  Matrix inputs(16, n);
  Rng data_rng(7);
  data_rng.FillUniform(inputs.data(), inputs.rows() * inputs.cols(), -1.0f,
                       1.0f);

  serve::ReplicaPool pool(*plan.value(), replicas);
  serve::IpuBackend backend(*plan.value(), &pool);
  const serve::BatchPolicy batch{.max_batch = max_batch,
                                 .max_delay_s = 100e-6};
  const std::size_t queue = 2 * replicas * max_batch;
  serve::ServerConfig sc;
  sc.batch = batch;
  sc.queue_capacity = queue;
  RouterConfig rc;
  rc.batch = batch;
  rc.queue_capacity = queue;
  serve::Server server(backend, sc);
  Router router({&backend}, rc);

  const serve::ClosedLoopLoad closed{.clients = queue, .requests = 8 * queue};
  // Past what the replicas sustain, so the queue bound sheds.
  const serve::OpenLoopLoad open{
      .qps = 3.0 * replicas * max_batch / plan.value()->batchSeconds(),
      .requests = 8 * queue,
      .seed = 5};
  const serve::ServeResult s = closed_loop
                                   ? server.RunClosedLoop(closed, &inputs)
                                   : server.RunOpenLoop(open, &inputs);
  const ClusterResult r = closed_loop ? router.RunClosedLoop(closed, &inputs)
                                      : router.RunOpenLoop(open, &inputs);
  ExpectSameServer(s.metrics, r.metrics.aggregate());
  EXPECT_EQ(s.metrics.overlappedHostSeconds() > 0.0, streaming);
  EXPECT_EQ(r.metrics.completed(), s.metrics.completed());
  ASSERT_EQ(s.logits.rows(), 8 * queue);
  ASSERT_EQ(r.logits.rows(), s.logits.rows());
  ASSERT_EQ(r.logits.cols(), s.logits.cols());
  EXPECT_EQ(std::memcmp(r.logits.data(), s.logits.data(),
                        s.logits.rows() * s.logits.cols() * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    CopyAndStreamingPlans, OneChipRouterTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "Streaming" : "Copy") +
             (std::get<1>(info.param) ? "ClosedLoop" : "OpenLoop");
    });

// The replay writes every slot's logits into one matrix, so chips serving
// models with different class counts cannot share a replay.
TEST(RouterDeathTest, SlotsDisagreeingOnClassCountDie) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::size_t n = 64;
  const std::size_t max_batch = 8;
  std::vector<std::unique_ptr<serve::ModelPlan>> plans;
  for (std::size_t classes : {10, 20}) {
    Rng rng(41);
    nn::Sequential model =
        nn::BuildShl(Method::kButterfly, SmallShape(n, classes), rng);
    auto plan = serve::ModelPlan::Build(
        nn::ExportForward(model), ipu::Gc200(),
        serve::PlanOptions{.max_batch = max_batch});
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    plans.push_back(plan.take());
  }
  PoolSet pools;
  for (const auto& plan : plans) {
    pools.own.push_back(std::make_unique<serve::ReplicaPool>(*plan, 1));
    pools.ptrs.push_back(pools.own.back().get());
  }
  RouterConfig rc;
  rc.batch = serve::BatchPolicy{.max_batch = max_batch, .max_delay_s = 0.0};
  Router router(pools.ptrs, rc);
  const Matrix inputs(max_batch, n);
  EXPECT_DEATH(router.RunClosedLoop(serve::ClosedLoopLoad{.clients = 16,
                                                          .requests = 32,
                                                          .think_s = 0.0},
                                    &inputs),
               "slots disagree on the logits width: slot 1 has 20 classes, "
               "slot 0 has 10");
}

// ---------------------------------------------------------------------------
// ShardPlan: tensor-parallel split, bitwise-near the unsharded plan

void CheckShardParity(Method method, std::size_t num_chips) {
  const std::size_t n = 64;
  const std::size_t max_batch = 8;
  Rng rng(41);
  nn::Sequential model = nn::BuildShl(method, SmallShape(n), rng);
  nn::ForwardSpec spec = nn::ExportForward(model);

  auto unsharded = serve::ModelPlan::Build(
      spec, ipu::Gc200(), serve::PlanOptions{.max_batch = max_batch});
  ASSERT_TRUE(unsharded.ok()) << unsharded.status().message();

  ShardOptions opts;
  opts.num_chips = num_chips;
  opts.max_batch = max_batch;
  auto sharded = ShardPlan::Build(spec, ipu::Gc200(), opts);
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();

  Matrix x(max_batch, n);
  Rng data_rng(7);
  for (std::size_t i = 0; i < max_batch; ++i)
    for (std::size_t j = 0; j < n; ++j)
      x(i, j) = float(data_rng.Uniform(-1.0, 1.0));

  std::unique_ptr<ipu::Engine> engine = unsharded.value()->MakeReplica();
  Matrix ref = unsharded.value()->RunBatch(*engine, x);
  Matrix got = sharded.value()->RunBatch(x);
  ASSERT_EQ(got.rows(), ref.rows());
  ASSERT_EQ(got.cols(), ref.cols());
  for (std::size_t i = 0; i < ref.rows(); ++i) {
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      EXPECT_NEAR(got(i, j), ref(i, j), 5e-4)
          << core::MethodName(method) << " logit (" << i << ", " << j << ")";
    }
  }
}

TEST(ShardPlanTest, DenseShardMatchesUnsharded) {
  CheckShardParity(Method::kBaseline, 4);
}

TEST(ShardPlanTest, ButterflyShardMatchesUnsharded) {
  CheckShardParity(Method::kButterfly, 4);
}

TEST(ShardPlanTest, ButterflyShardAcrossTwoChips) {
  CheckShardParity(Method::kButterfly, 2);
}

// FNV-1a (64-bit) over the bytes of a matrix's floats.
std::uint64_t Fnv1a(const Matrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (std::size_t i = 0; i < m.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

TEST(ShardPlanTest, LogitsArePinnedBitwise) {
  // CheckShardParity's models and inputs, bit for bit: the cross-chip
  // butterfly factors and the chip-order sums run host-side, so a change
  // to their arithmetic or order moves a digest even where the 5e-4
  // parity bound still holds.
  struct Pin {
    Method method;
    std::size_t chips;
    std::uint64_t digest;
  };
  for (const Pin& pin : {Pin{Method::kBaseline, 2, 0xcea43bb359b635acull},
                         Pin{Method::kBaseline, 4, 0x80d2e2d966cb08b2ull},
                         Pin{Method::kButterfly, 2, 0x8a23c4eff8b5713aull},
                         Pin{Method::kButterfly, 4, 0x1b2411f596630034ull}}) {
    const std::size_t n = 64;
    const std::size_t max_batch = 8;
    Rng rng(41);
    nn::Sequential model = nn::BuildShl(pin.method, SmallShape(n), rng);
    ShardOptions opts;
    opts.num_chips = pin.chips;
    opts.max_batch = max_batch;
    auto plan = ShardPlan::Build(nn::ExportForward(model), ipu::Gc200(), opts);
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    Matrix x(max_batch, n);
    Rng data_rng(7);
    for (std::size_t i = 0; i < max_batch; ++i)
      for (std::size_t j = 0; j < n; ++j)
        x(i, j) = float(data_rng.Uniform(-1.0, 1.0));
    const std::uint64_t got = Fnv1a(plan.value()->RunBatch(x));
    EXPECT_EQ(got, pin.digest) << core::MethodName(pin.method) << " on "
                               << pin.chips << " chips: 0x" << std::hex << got;
  }
}

TEST(ShardPlanTest, FabricScheduleShape) {
  const std::size_t n = 64;
  Rng rng(41);
  nn::Sequential bmodel = nn::BuildShl(Method::kButterfly, SmallShape(n), rng);
  nn::ForwardSpec bspec = nn::ExportForward(bmodel);
  ShardOptions opts;
  opts.num_chips = 4;
  opts.max_batch = 8;
  auto bplan = ShardPlan::Build(bspec, ipu::Gc200(), opts);
  ASSERT_TRUE(bplan.ok()) << bplan.status().message();
  // log2(64) = 6 factors, log2(16) = 4 chip-local: 2 cross-chip exchanges
  // plus the logits ring-reduce.
  ASSERT_EQ(bplan.value()->fabricSteps().size(), 3u);
  EXPECT_EQ(bplan.value()->fabricSteps()[0].name, "butterfly_exchange[f=4]");
  EXPECT_EQ(bplan.value()->fabricSteps()[1].name, "butterfly_exchange[f=5]");
  EXPECT_EQ(bplan.value()->fabricSteps()[2].name, "logits_reduce");
  // Exchange payload: the chip's local (n/C) x B activation slab.
  EXPECT_EQ(bplan.value()->fabricSteps()[0].bytes,
            (n / 4) * 8 * sizeof(float));
  const double sum = bplan.value()->fabricSteps()[0].seconds +
                     bplan.value()->fabricSteps()[1].seconds +
                     bplan.value()->fabricSteps()[2].seconds;
  EXPECT_EQ(bplan.value()->fabricSeconds(), sum);
  EXPECT_EQ(bplan.value()->batchSeconds(),
            bplan.value()->stageASeconds() + bplan.value()->fabricSeconds() +
                bplan.value()->stageBSeconds());

  Rng rng2(41);
  nn::Sequential dmodel = nn::BuildShl(Method::kBaseline, SmallShape(n), rng2);
  nn::ForwardSpec dspec = nn::ExportForward(dmodel);
  auto dplan = ShardPlan::Build(dspec, ipu::Gc200(), opts);
  ASSERT_TRUE(dplan.ok()) << dplan.status().message();
  ASSERT_EQ(dplan.value()->fabricSteps().size(), 2u);
  EXPECT_EQ(dplan.value()->fabricSteps()[0].name, "hidden_reduce_scatter");
  EXPECT_EQ(dplan.value()->fabricSteps()[1].name, "logits_reduce");
}

TEST(ShardPlanTest, RejectsUnsupportedConfigurations) {
  const std::size_t n = 64;
  Rng rng(41);
  nn::Sequential model = nn::BuildShl(Method::kButterfly, SmallShape(n), rng);
  nn::ForwardSpec spec = nn::ExportForward(model);
  ShardOptions opts;
  opts.max_batch = 8;
  opts.num_chips = 3;  // not a power of two
  EXPECT_FALSE(ShardPlan::Build(spec, ipu::Gc200(), opts).ok());
  opts.num_chips = 32;  // beyond the supported pod size
  EXPECT_FALSE(ShardPlan::Build(spec, ipu::Gc200(), opts).ok());
}

}  // namespace
}  // namespace repro::cluster
