#include <gtest/gtest.h>

#include <vector>

#include "core/device_time.h"
#include "core/ipu_lowering.h"
#include "util/bitops.h"

namespace repro::core {
namespace {

const ipu::IpuArch kArch = ipu::Gc200();

TEST(IpuLowering, LinearProducesSaneTiming) {
  IpuLayerTiming t = TimeLinearIpu(kArch, 50, 1024, 1024);
  EXPECT_FALSE(t.streamed);
  EXPECT_GT(t.fwd_seconds, 0.0);
  EXPECT_LT(t.fwd_seconds, 1e-2);
  // Engine-counted flops include zero padding of partial edge blocks; the
  // useful-flop count is a tight lower bound.
  EXPECT_GE(t.flops, 2.0 * 50 * 1024 * 1024);
  EXPECT_LE(t.flops, 1.35 * 2.0 * 50 * 1024 * 1024);
}

// Every pass-flag combination for N <= 1024 and the defaults above it: the
// compute-set counts do not depend on the batch, so a small one keeps the
// Fig. 7 sweep cheap.
std::vector<IpuLoweringOptions> Fig7Flags(std::size_t n) {
  std::vector<IpuLoweringOptions> flags;
  for (int bits = 0; bits < (n <= 1024 ? 8 : 1); ++bits) {
    IpuLoweringOptions opts;
    opts.poptorch_parity = (bits & 1) == 0;
    opts.fuse_compute_sets = (bits & 2) == 0;
    opts.reuse_variable_memory = (bits & 4) == 0;
    flags.push_back(opts);
  }
  return flags;
}

TEST(IpuLowering, ButterflyHasLogNComputeSets) {
  // Fig. 7: one superstep per factor, log2 N, under every pass flag, and
  // the graph fits on chip.
  for (std::size_t n = 128; n <= 4096; n *= 2) {
    for (const IpuLoweringOptions& opts : Fig7Flags(n)) {
      IpuLayerTiming t = TimeButterflyIpu(kArch, 4, n, opts);
      EXPECT_EQ(t.counts.compute_sets, Log2(n))
          << "n=" << n << " parity=" << opts.poptorch_parity
          << " fuse=" << opts.fuse_compute_sets
          << " reuse=" << opts.reuse_variable_memory;
      EXPECT_FALSE(t.streamed) << "n=" << n;
      EXPECT_GT(t.counts.vertices, 0u);
    }
  }
}

TEST(IpuLowering, PixelflyHasFewComputeSets) {
  // Fig. 7: the flat butterfly is one block-sparse superstep plus the sum
  // once the fusion pass merges its per-level compute sets, against
  // butterfly's log2 N; without fusion each level stays its own.
  for (std::size_t n = 128; n <= 4096; n *= 2) {
    const PixelflyConfig pf = ScaledPixelflyConfig(n);
    for (const IpuLoweringOptions& opts : Fig7Flags(n)) {
      IpuLayerTiming t = TimePixelflyIpu(kArch, 4, pf, opts);
      const std::size_t want =
          opts.fuse_compute_sets ? 2 : Log2(pf.butterfly_size) + 1;
      EXPECT_EQ(t.counts.compute_sets, want)
          << "n=" << n << " fuse=" << opts.fuse_compute_sets
          << " reuse=" << opts.reuse_variable_memory;
      EXPECT_FALSE(t.streamed) << "n=" << n;
    }
  }
}

TEST(IpuLowering, ButterflyBreakEvenNearPaperPoint) {
  // Fig. 6 (right): butterfly/Linear ratio ~1 at N = 2^10, <1 above, and a
  // mild worst case (~1.4x) at small N.
  auto ratio = [&](std::size_t n) {
    return TimeButterflyIpu(kArch, n, n).fwd_seconds /
           TimeLinearIpu(kArch, n, n, n).fwd_seconds;
  };
  // Paper: worst degradation 1.4x at N = 2^7; our per-superstep fixed costs
  // land a little higher but stay far below the GPU's 14.45x.
  EXPECT_LT(ratio(128), 4.0);
  EXPECT_GT(ratio(128), 0.8);
  EXPECT_NEAR(ratio(1024), 1.0, 0.5);
  EXPECT_LT(ratio(4096), 1.0);  // butterfly wins at large N
  EXPECT_GT(ratio(4096), 0.3);  // ... but only moderately (paper: 1.6x max)
}

TEST(IpuLowering, CustomVerticesBeatPopTorchParity) {
  // The Section-5 optimisation discussion: custom vertices would make
  // butterfly far faster than the framework lowering at large N.
  IpuLoweringOptions parity{.poptorch_parity = true};
  IpuLoweringOptions custom{.poptorch_parity = false};
  const double tp = TimeButterflyIpu(kArch, 4096, 4096, parity).fwd_seconds;
  const double tc = TimeButterflyIpu(kArch, 4096, 4096, custom).fwd_seconds;
  EXPECT_LT(tc, 0.5 * tp);
}

TEST(IpuLowering, FastfoodSlowerThanLinearAtShlShape) {
  // Table 4 (IPU): fastfood 60.7s vs baseline 24.7s -- the permutation and
  // 2 log n Hadamard supersteps dominate at batch 50.
  const double ff = TimeFastfoodIpu(kArch, 50, 1024).fwd_seconds;
  const double lin = TimeLinearIpu(kArch, 50, 1024, 1024).fwd_seconds;
  EXPECT_GT(ff, 1.2 * lin);
}

TEST(IpuLowering, LowRankNearParityWithLinear) {
  // Table 4 (IPU): low-rank 21.75 s vs baseline 24.69 s -- only slightly
  // faster, because per-op overheads dominate the tiny rank-1 compute.
  const double lr = TimeLowRankIpu(kArch, 50, 1024, 1024, 1).fwd_seconds;
  const double lin = TimeLinearIpu(kArch, 50, 1024, 1024).fwd_seconds;
  EXPECT_LT(lr, 1.5 * lin);
  EXPECT_GT(lr, 0.4 * lin);
}

TEST(IpuLowering, HugeLinearFallsBackToStreaming) {
  IpuLayerTiming t = TimeLinearIpu(kArch, 16384, 16384, 16384);
  EXPECT_TRUE(t.streamed);
  // 3 * 1 GiB at 20 GB/s floor.
  EXPECT_GT(t.fwd_seconds, 0.1);
}

TEST(IpuLowering, MemoryGrowsWithN) {
  IpuLayerTiming small = TimeButterflyIpu(kArch, 128, 128);
  IpuLayerTiming large = TimeButterflyIpu(kArch, 1024, 1024);
  EXPECT_GT(large.counts.total_bytes, small.counts.total_bytes);
  EXPECT_GT(large.counts.edges, small.counts.edges);
}

TEST(DeviceTime, AllMethodsAllDevicesPositive) {
  for (Device d : kAllDevices) {
    for (Method m : kAllMethods) {
      MethodTime t = ForwardSeconds(d, m, 128, 128);
      EXPECT_GT(t.seconds, 0.0) << DeviceName(d) << " " << MethodName(m);
      EXPECT_LT(t.seconds, 1.0);
    }
  }
}

TEST(DeviceTime, IpuBaselineBeatsGpuAtShlShape) {
  // Table 4: IPU baseline trains ~2x faster than the GPU (24.7 vs 49.5 s).
  ShlShape shape;
  const double ipu =
      TrainStepSeconds(Device::kIpu, Method::kBaseline, shape).seconds;
  const double gpu =
      TrainStepSeconds(Device::kGpuNoTc, Method::kBaseline, shape).seconds;
  EXPECT_LT(ipu, gpu);
}

TEST(DeviceTime, ButterflyIpuSpeedupOverGpu) {
  // Table 4's headline: butterfly training is ~1.6x faster on IPU than GPU.
  ShlShape shape;
  const double ipu =
      TrainStepSeconds(Device::kIpu, Method::kButterfly, shape).seconds;
  const double gpu =
      TrainStepSeconds(Device::kGpuNoTc, Method::kButterfly, shape).seconds;
  EXPECT_LT(ipu, gpu);
  EXPECT_GT(gpu / ipu, 1.1);
  EXPECT_LT(gpu / ipu, 4.5);
}

TEST(DeviceTime, PixelflyIpuSlowerThanGpu) {
  // Table 4: pixelfly is the one method where the IPU *loses* (71.6 vs 56.0).
  ShlShape shape;
  const double ipu =
      TrainStepSeconds(Device::kIpu, Method::kPixelfly, shape).seconds;
  const double gpu =
      TrainStepSeconds(Device::kGpuNoTc, Method::kPixelfly, shape).seconds;
  EXPECT_GT(ipu, gpu);
}

TEST(DeviceTime, PixelflyGpuBenefitsFromStructure) {
  // On the GPU pixelfly beats butterfly (1.17x faster than baseline in the
  // paper); block alignment is a dense-processor advantage.
  ShlShape shape;
  const double pf =
      TrainStepSeconds(Device::kGpuNoTc, Method::kPixelfly, shape).seconds;
  const double bf =
      TrainStepSeconds(Device::kGpuNoTc, Method::kButterfly, shape).seconds;
  EXPECT_LT(pf, bf);
}

TEST(DeviceTime, ScaledPixelflyConfigMatchesPaperAt1024) {
  PixelflyConfig pf = ScaledPixelflyConfig(1024);
  EXPECT_EQ(pf.block_size, 16u);
  EXPECT_EQ(pf.butterfly_size, 64u);
  EXPECT_EQ(pf.low_rank, 96u);
  EXPECT_EQ(pf.paramCount(), 393216u);
}

}  // namespace
}  // namespace repro::core
