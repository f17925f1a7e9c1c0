// Fig. 7: number of compute sets on the IPU for square problems, and the
// correlation between compute sets, graph objects and memory consumption
// (the paper uses the PopVision Graph Analyzer; we read the same quantities
// from the compiler's ledger).
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "core/device_time.h"
#include "core/ipu_lowering.h"
#include "util/cli.h"
#include "util/table.h"

using namespace repro;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchIo io("fig7_computesets", cli);
  const ipu::IpuArch arch = ipu::Gc200();
  const unsigned max_pow = cli.Fast() ? 11 : 13;
  // --fuse / --reuse toggle the compiler passes; both default on (the fused
  // numbers the paper's PopVision screenshots show). EXPERIMENTS.md reruns
  // this bench with them off to expose the unfused graph cost.
  core::IpuLoweringOptions opts;
  opts.fuse_compute_sets = cli.GetBool("fuse", true);
  opts.reuse_variable_memory = cli.GetBool("reuse", true);
  // BenchIo carries the shared --json / --trace / --cache-dir surface:
  // --cache-dir persists the compiled artifacts (a second run reloads them
  // instead of recompiling, and check.sh asserts its ledger JSON is
  // byte-identical to the cold compile); --trace dumps the compile-pass
  // spans and every lowering's BSP timeline as one Chrome trace.
  opts.cache = &io.cache();
  obs::Tracer* const tp = io.tracer();
  // The linear lowering keeps default pass flags regardless of --fuse /
  // --reuse (those ablate the factorized graphs only), so it gets its own
  // options object carrying just the trace sink.
  core::IpuLoweringOptions lin_opts;
  lin_opts.cache = &io.cache();
  std::size_t next_pid = 0;
  auto traced = [&](core::IpuLoweringOptions base, const char* method,
                    std::size_t n) {
    base.tracer = tp;
    base.trace_pid = next_pid++;
    base.trace_label = std::string(method) + ":n" + std::to_string(n);
    return base;
  };

  PrintBanner("Fig 7: compute sets and memory vs N (IPU), batch = N");
  Table t({"N", "Linear CS", "Bfly CS", "Pixelfly CS", "Linear mem [MB]",
           "Bfly mem [MB]", "Pixelfly mem [MB]", "Bfly edges",
           "Pixelfly edges"});
  for (unsigned p = 7; p <= max_pow; ++p) {
    const std::size_t n = std::size_t{1} << p;
    const core::IpuLayerTiming lin =
        core::TimeLinearIpu(arch, n, n, n, traced(lin_opts, "linear", n));
    const core::IpuLayerTiming bf =
        core::TimeButterflyIpu(arch, n, n, traced(opts, "butterfly", n));
    const core::IpuLayerTiming pf = core::TimePixelflyIpu(
        arch, n, core::ScaledPixelflyConfig(n), traced(opts, "pixelfly", n));
    io.Add("{\"n\": " + std::to_string(n) +
             ", \"linear\": " + lin.counts.ToJson() +
             ", \"butterfly\": " + bf.counts.ToJson() +
             ", \"pixelfly\": " + pf.counts.ToJson() + "}");
    auto mb = [](std::size_t b) {
      return Table::Num(static_cast<double>(b) / 1e6, 1);
    };
    auto cs = [](const core::IpuLayerTiming& x) {
      return x.streamed ? std::string("streamed")
                        : Table::Int(static_cast<long long>(x.counts.compute_sets));
    };
    t.AddRow({Table::Int(static_cast<long long>(n)), cs(lin), cs(bf), cs(pf),
              mb(lin.counts.total_bytes), mb(bf.counts.total_bytes),
              mb(pf.counts.total_bytes),
              Table::Int(static_cast<long long>(bf.counts.edges)),
              Table::Int(static_cast<long long>(pf.counts.edges))});
  }
  t.Print();

  std::printf(
      "\nShape checks (paper Section 4.1):\n"
      "  Butterfly executes log2(N) compute sets (one per factor); pixelfly's\n"
      "  flat block butterfly collapses to a handful, trading supersteps for\n"
      "  denser per-vertex work. The number of compute sets correlates with\n"
      "  the number of variables, edges and vertices, and with total memory\n"
      "  -- the same correlation PopVision shows in the paper.\n");
  io.PrintCacheStats();
  PrintEngineHostWall();
  io.Finish();
  return 0;
}
