// Lowers each layer type onto the IPU simulator: builds the Poplar-style
// graph, compiles it (per-tile memory checked), and runs a timing-only
// engine pass. These timings drive Fig. 6 (right), Fig. 7, Table 4 (IPU
// column) and Table 5.
//
// The butterfly and pixelfly graphs come from AddButterflyStages and
// AddPixelflyBlocks, which the executing serving and shard plans call too,
// so the timed graph and the served graph are one lowering. Like Poplar's
// library calls, each takes the caller's graph, program and a name prefix.
//
// The butterfly/fastfood lowerings use the transposed activation layout
// (features x batch) so each 2x2 pair touches two contiguous rows, exactly
// how a feature-parallel lowering lays tensors out on the real device.
#pragma once

#include <string>
#include <vector>

#include "core/pixelfly.h"
#include "ipusim/arch.h"
#include "ipusim/graph.h"
#include "ipusim/profiler.h"
#include "ipusim/program.h"
#include "util/error.h"

namespace repro::obs {
class Tracer;
}  // namespace repro::obs

namespace repro::ipu {
class ExeCache;
}  // namespace repro::ipu

namespace repro::core {

// --- layer lowerings shared with serving (serve/) and sharding (cluster/) ---
//
// Each appends one layer's graph to the caller's graph and program, names its
// tensors and compute sets from `prefix`, and returns what the caller needs
// afterwards. The paper timings below, serve::ModelPlan and
// cluster::ShardPlan all build their layers through these, so a layer is
// lowered in one place.

// The log2(n) Butterfly2x2 stages of an n-point butterfly over the
// feature-major activation x (n = x.rows features of x.cols batch columns).
// With PopTorch parity (the calibrated default) each stage first
// materialises its input into a fresh staging tensor, `prefix` + "stage<f>",
// and the vertices run at the parity cycles-per-MAC; without it the stages
// run in place on x. The factor weights are `prefix` + "w<f>", (n/2) x 4.
struct ButterflyStages {
  std::vector<ipu::Tensor> w;  // per factor, in stage order
  ipu::Tensor y;               // the last stage's output (x when in place)
};
ButterflyStages AddButterflyStages(ipu::Graph& g, ipu::Program& seq,
                                   const std::string& prefix,
                                   const ipu::Tensor& x, bool parity);

// Pixelfly's block-sparse term plus residual, y = B x (+ x), over the
// feature-major x and y (config.n rows of x.cols batch columns): one
// BlockGemmAmp vertex per (output block-row, butterfly level) reading the
// caller's block weights w (pattern.size() x b*b, the level-major
// FlatButterflyPattern), one compute set per level (the fusion pass merges
// them into one superstep), then a ReduceAdd of the level partials into y.
// Adds `prefix` + "pfpart" and the compute sets `prefix` + "pf_lv<l>" and
// `prefix` + "pf_sum".
void AddPixelflyBlocks(ipu::Graph& g, ipu::Program& seq,
                       const std::string& prefix, const ipu::Tensor& x,
                       const ipu::Tensor& w, const ipu::Tensor& y,
                       const PixelflyConfig& config,
                       const std::vector<BlockCoord>& pattern);

struct IpuLayerTiming {
  double fwd_seconds = 0.0;
  double flops = 0.0;
  ipu::GraphCounts counts;
  // True when the graph did not fit on-chip and the time is the streaming
  // fallback estimate (PopTorch-style spilling to streaming memory).
  bool streamed = false;
};

struct IpuLoweringOptions {
  // PopTorch parity (default): butterfly stages run as the framework lowers
  // them -- generic gather + tiny-matmul vertices whose per-MAC cost grows
  // with tensor size (rearrangement buffers and gather lists degrade SRAM
  // locality). Turning this off models hand-written custom vertices, the
  // optimisation opportunity the paper's Section 5 discussion points at.
  bool poptorch_parity = true;
  // Compiler pass flags (SessionOptions passthrough). The lowerings emit
  // their natural unfused form -- one compute set per butterfly level, a
  // fresh staging tensor per materialised stage -- and rely on the fusion
  // and liveness passes to recover the fused/ping-pong cost. Turning these
  // off exposes what the graph costs without the passes (bench_ablations).
  bool fuse_compute_sets = true;
  bool reuse_variable_memory = true;
  // Optional trace sink (SessionOptions passthrough): compile-pass spans and
  // the BSP timeline of the timing run land on trace_pid.
  obs::Tracer* tracer = nullptr;
  std::size_t trace_pid = 0;
  std::string trace_label{};
  // Optional content-addressed compile cache (ipusim/exe_cache.h,
  // SessionOptions passthrough). Sweeps that revisit a (shape, flags)
  // combination reuse the compiled artifact; --cache-dir on the benches
  // persists it across processes. Not owned.
  ipu::ExeCache* cache = nullptr;
};

// torch.nn.Linear equivalent: poplin matmul (batch x in) * (in x out).
IpuLayerTiming TimeLinearIpu(const ipu::IpuArch& arch, std::size_t batch,
                             std::size_t in, std::size_t out,
                             const IpuLoweringOptions& opts = {});

// Butterfly: log2(n) compute sets of Butterfly2x2 vertices
// (AddButterflyStages).
IpuLayerTiming TimeButterflyIpu(const ipu::IpuArch& arch, std::size_t batch,
                                std::size_t n,
                                const IpuLoweringOptions& opts = {});

// Pixelfly: the block-sparse term and residual (AddPixelflyBlocks) + two
// skinny poplin matmuls for the low-rank term, charged analytically.
IpuLayerTiming TimePixelflyIpu(const ipu::IpuArch& arch, std::size_t batch,
                               const PixelflyConfig& config,
                               const IpuLoweringOptions& opts = {});

// Fastfood: 2 x log2(n) Hadamard stages + 3 diagonal scalings + permutation.
IpuLayerTiming TimeFastfoodIpu(const ipu::IpuArch& arch, std::size_t batch,
                               std::size_t n,
                               const IpuLoweringOptions& opts = {});

// Circulant: materialised circulant matrix + poplin matmul.
IpuLayerTiming TimeCirculantIpu(const ipu::IpuArch& arch, std::size_t batch,
                                std::size_t n,
                                const IpuLoweringOptions& opts = {});

// Low rank: two skinny poplin matmuls.
IpuLayerTiming TimeLowRankIpu(const ipu::IpuArch& arch, std::size_t batch,
                              std::size_t in, std::size_t out,
                              std::size_t rank,
                              const IpuLoweringOptions& opts = {});

}  // namespace repro::core
