// Future-work extension (paper Section 6): scaling the SHL training step to
// the full M2000 pod (4x GC200) with data parallelism. The paper's machine
// is this pod restricted to a single IPU; its conclusion proposes scaling
// out with sparse methods, and this bench quantifies why that pairing works:
// compressed layers shrink the gradient allreduce by the same ratio as the
// memory footprint, so butterfly scales with near-perfect efficiency while
// the dense baseline pays for 1.06 M gradients every step.
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "cluster/link_fabric.h"
#include "core/device_time.h"
#include "util/cli.h"
#include "util/table.h"

using namespace repro;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  // --trace: the per-method gradient-allreduce collective schedule
  // (LinkFabric ring steps) as Chrome trace spans. Off by default; all
  // stdout/--json bytes are unchanged without it.
  BenchIo io("multi_ipu", cli);
  const ipu::LinkFabricConfig pod;  // the M2000: 4 GC200s on an IPU-Link ring
  const ipu::LinkFabric fabric(pod);
  core::ShlShape shape;

  PrintBanner(
      "Extension: data-parallel SHL step on the M2000 pod (1/2/4 GC200s)");
  Table t({"Method", "params", "1 IPU [us]", "2 IPUs [us]", "4 IPUs [us]",
           "speedup@4", "efficiency@4"});
  const double floor_s = 250e-6;  // host/StepIO floor that does not shard
  for (core::Method m : core::kAllMethods) {
    const double step =
        core::TrainStepSeconds(core::Device::kIpu, m, shape).seconds;
    std::size_t params = 0;
    switch (m) {
      case core::Method::kBaseline: params = 1059850; break;
      case core::Method::kButterfly: params = 16394; break;
      case core::Method::kFastfood: params = 14346; break;
      case core::Method::kCirculant: params = 12298; break;
      case core::Method::kLowRank: params = 13322; break;
      case core::Method::kPixelfly: params = 404490; break;
    }
    auto pts = ipu::DataParallelScaling(pod, step, floor_s, params);
    for (const ipu::ScalingPoint& pt : pts) {
      char rec[256];
      std::snprintf(rec, sizeof rec,
                    "{\"method\": \"%s\", \"params\": %zu, \"ipus\": %zu, "
                    "\"step_us\": %.17g, \"speedup\": %.17g, "
                    "\"efficiency\": %.17g}",
                    core::MethodName(m), params, pt.ipus,
                    pt.step_seconds * 1e6, pt.speedup, pt.efficiency);
      io.Add(rec);
    }
    t.AddRow({core::MethodName(m), Table::Int(static_cast<long long>(params)),
              Table::Num(pts[0].step_seconds * 1e6, 1),
              Table::Num(pts[1].step_seconds * 1e6, 1),
              Table::Num(pts[2].step_seconds * 1e6, 1),
              Table::Num(pts[2].speedup, 2),
              Table::Num(100.0 * pts[2].efficiency, 0) + "%"});
    if (io.tracer() != nullptr) {
      // One track per method: the full-pod ring allreduce of its gradient
      // vector, step by step on the virtual clock.
      obs::TraceTrack& track =
          io.tracer()->track(0, 1 + static_cast<std::size_t>(m), "multi_ipu",
                             core::MethodName(m));
      double cursor_us = 0.0;
      for (const ipu::FabricStep& s :
           fabric.RingAllReduceSteps(params * sizeof(float))) {
        track.Complete(s.name, "collective", cursor_us, s.seconds * 1e6,
                       {obs::Arg("bytes", static_cast<std::uint64_t>(s.bytes)),
                        obs::Arg("hops", static_cast<std::uint64_t>(s.hops))});
        cursor_us += s.seconds * 1e6;
      }
      io.tracer()->Count("multi_ipu.collective_steps");
    }
  }
  t.Print();

  const double dense_ar =
      fabric.RingAllReduceSeconds(1059850 * sizeof(float)) * 1e6;
  const double bfly_ar =
      fabric.RingAllReduceSeconds(16394 * sizeof(float)) * 1e6;
  std::printf(
      "\nGradient allreduce per step at 4 IPUs: baseline %.1f us vs butterfly "
      "%.1f us\n(%.0fx less inter-chip traffic -- the same 98.5%% compression "
      "that saves\non-chip memory also buys scale-out efficiency).\n",
      dense_ar, bfly_ar, dense_ar / bfly_ar);
  io.Finish();
  return 0;
}
