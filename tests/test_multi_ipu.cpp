// M2000 data-parallel training model over the IPU-Link fabric
// (cluster/link_fabric.h): ring-allreduce cost and DataParallelScaling.
#include <gtest/gtest.h>

#include "cluster/link_fabric.h"

namespace repro::ipu {
namespace {

TEST(AllReduce, SingleIpuIsFree) {
  const LinkFabric fabric(LinkFabricConfig{.num_ipus = 1});
  EXPECT_EQ(fabric.RingAllReduceSeconds(1 << 20), 0.0);
}

TEST(AllReduce, ScalesWithBytes) {
  const LinkFabric fabric;
  const double small = fabric.RingAllReduceSeconds(1 << 16);
  const double large = fabric.RingAllReduceSeconds(1 << 26);
  EXPECT_GT(large, 100 * small / 200);  // latency floor aside, ~linear
  EXPECT_GT(large, small);
}

TEST(AllReduce, RingVolumeFormula) {
  const LinkFabric fabric(
      LinkFabricConfig{.num_ipus = 4, .link_latency_sec = 0.0});
  const std::size_t bytes = 320'000'000;  // 1 ms of link bandwidth
  // 2 * (4-1)/4 = 1.5 traversals of 1 ms each.
  EXPECT_NEAR(fabric.RingAllReduceSeconds(bytes), 1.5e-3, 1e-9);
}

TEST(Scaling, DenseVsButterflyEfficiency) {
  // The future-work punchline: butterfly's 16k parameters allreduce ~65x
  // cheaper than the baseline's 1.06M, so it scales with higher efficiency
  // once compute shrinks per IPU.
  const LinkFabricConfig pod;
  const double step = 400e-6;   // single-IPU baseline step
  const double floor = 150e-6;  // un-shrinkable per-step overhead
  auto dense = DataParallelScaling(pod, step, floor, 1059850);
  auto bfly = DataParallelScaling(pod, step, floor, 16394);
  ASSERT_EQ(dense.size(), 3u);  // 1, 2, 4 IPUs
  EXPECT_EQ(dense[2].ipus, 4u);
  EXPECT_GT(bfly[2].speedup, dense[2].speedup);
  EXPECT_GT(bfly[2].efficiency, dense[2].efficiency);
  // Speedups are sane: in (1, p].
  for (const auto& pt : bfly) {
    EXPECT_GE(pt.speedup, 1.0);
    EXPECT_LE(pt.speedup, static_cast<double>(pt.ipus) + 1e-9);
  }
}

TEST(Scaling, MonotoneStepTimeDecrease) {
  auto pts = DataParallelScaling(LinkFabricConfig{}, 1e-3, 1e-4, 16394);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i].step_seconds, pts[i - 1].step_seconds);
  }
}

TEST(Scaling, HugeGradientsCanInvertScaling) {
  // With enormous parameter counts the allreduce dominates and 4 IPUs can
  // be slower than 1 -- the regime where compression is *necessary*.
  auto pts = DataParallelScaling(LinkFabricConfig{}, 200e-6, 100e-6,
                                 400u * 1000 * 1000);
  EXPECT_LT(pts.back().speedup, 1.0);
}

}  // namespace
}  // namespace repro::ipu
