// Host-kernel and vertex-dispatch microbenchmarks.
//
// Part 1 (host kernels): the numeric substrate the training experiments run
// on -- GEMM, SpMM, butterfly/pixelfly forwards, FWHT, FFT, circular
// convolution -- timed with a plain steady_clock loop. Useful for validating
// that the Table 4 runs are not bottlenecked by an accidentally slow host
// kernel.
//
// Part 2 (vertex dispatch): one compute set of many tiny vertices run
// through the engine's KernelPlan dispatch -- fused per-(tile, codelet)
// batches -- with host wall-clock build and run ns per vertex and vertices
// per dispatch in the --json records.
//
// JSON values here are wall-clock measurements and intentionally vary run
// to run, and each host-kernel record names the GEMM core's vector width
// (gemm_isa), which the CPU picks; scripts/check.sh holds only the key
// schema stable (scripts/bench_schemas/bench_kernels.keys).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/butterfly.h"
#include "core/fft.h"
#include "core/fwht.h"
#include "core/pixelfly.h"
#include "ipusim/arch.h"
#include "ipusim/session.h"
#include "linalg/gemm.h"
#include "linalg/spmm.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

using namespace repro;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Times `iters` calls of `fn` (after one untimed warmup) and records one
// JSON entry: ns per iteration plus items (flops, elements) per second.
void TimeKernel(BenchJsonWriter& json, Table& table, const std::string& name,
                std::size_t n, std::size_t iters, std::size_t items_per_iter,
                const std::function<void()>& fn) {
  fn();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  const double s = SecondsSince(t0);
  const double ns_per_iter = s / static_cast<double>(iters) * 1e9;
  const double items_per_s =
      s > 0.0 ? static_cast<double>(items_per_iter * iters) / s : 0.0;
  char rec[320];
  std::snprintf(rec, sizeof rec,
                "{\"kernel\": \"%s\", \"n\": %zu, \"iters\": %zu, "
                "\"ns_per_iter\": %.17g, \"items_per_s\": %.17g, "
                "\"gemm_isa\": \"%s\"}",
                name.c_str(), n, iters, ns_per_iter, items_per_s, GemmIsa());
  json.Add(rec);
  table.AddRow({name, Table::Int(static_cast<long long>(n)),
                Table::Int(static_cast<long long>(iters)),
                Table::Num(ns_per_iter / 1e3, 1), Table::Num(items_per_s / 1e9, 2)});
}

void RunHostKernels(BenchJsonWriter& json, bool fast) {
  PrintBanner("Host kernels: training-side numeric substrate");
  // The GEMM rows depend on it; the widest the CPU offers (linalg/gemm.h).
  std::printf("GEMM core vector width: %s\n", GemmIsa());
  Table t({"kernel", "n", "iters", "us/iter", "Gitems/s"});
  const std::size_t scale = fast ? 1 : 4;

  {
    const std::size_t n = fast ? 128 : 256;
    Rng rng(1);
    Matrix a = Matrix::RandomNormal(n, n, rng);
    Matrix b = Matrix::RandomNormal(n, n, rng);
    Matrix c(n, n);
    TimeKernel(json, t, "gemm_blocked", n, 4 * scale, 2 * n * n * n,
               [&] { GemmBlocked(a, b, c); });
    TimeKernel(json, t, "gemm_naive", n, 2 * scale, 2 * n * n * n,
               [&] { GemmNaive(a, b, c); });
  }
  // The SHL training shapes (m x k x n, batch 50), each layout next to the
  // naive reference on the same product: the hidden forward, the hidden dW
  // (k = batch) and the classifier. TransA reads A stored k x m, TransB B
  // stored n x k. The record's n is the product's n.
  struct Shape {
    const char* name;
    std::size_t m, k, n;
  };
  for (const Shape& s : {Shape{"fwd", 50, 1024, 1024}, Shape{"dw", 1024, 50, 1024},
                         Shape{"cls", 50, 1024, 10}}) {
    Rng rng(2);
    const Matrix a = Matrix::RandomNormal(s.m, s.k, rng);
    const Matrix b = Matrix::RandomNormal(s.k, s.n, rng);
    const Matrix at = a.Transposed();
    const Matrix bt = b.Transposed();
    Matrix c(s.m, s.n);
    const std::size_t flops = 2 * s.m * s.k * s.n;
    const std::size_t iters = 2 * scale;
    const std::string tag = std::string("_") + s.name;
    TimeKernel(json, t, "gemm_naive" + tag, s.n, iters, flops,
               [&] { GemmNaive(a, b, c); });
    TimeKernel(json, t, "gemm_blocked" + tag, s.n, iters, flops,
               [&] { GemmBlocked(a, b, c); });
    TimeKernel(json, t, "gemm_transa" + tag, s.n, iters, flops,
               [&] { GemmTransA(at, b, c); });
    TimeKernel(json, t, "gemm_transb" + tag, s.n, iters, flops,
               [&] { GemmTransB(a, bt, c); });
  }
  // The IPU serving vertices on GemmSerial, the entry the engine calls: a
  // dense AmpGemm (a 16-row weight block times a k x 32 activation chunk),
  // the same accumulating, and a pixelfly BlockGemmAmp vertex of two
  // 16 x 16 blocks accumulated in turn. B's 32-float rows are read in place.
  {
    Rng rng(9);
    const auto gemm = [&](const std::string& name, std::size_t m,
                          std::size_t k, std::size_t n, std::size_t blocks,
                          bool accumulate) {
      const Matrix a = Matrix::RandomNormal(blocks * m, k, rng);
      const Matrix b = Matrix::RandomNormal(blocks * k, n, rng);
      Matrix c(m, n);
      TimeKernel(json, t, name, n, 64 * scale, 2 * blocks * m * k * n, [&] {
        for (std::size_t blk = 0; blk < blocks; ++blk) {
          GemmSerial(m, k, n, a.data() + blk * m * k, b.data() + blk * k * n,
                     c.data(), accumulate || blk > 0);
        }
      });
    };
    gemm("gemm_vertex_amp", 16, 256, 32, 1, false);
    gemm("gemm_vertex_amp_acc", 16, 96, 32, 1, true);
    gemm("gemm_vertex_block", 16, 16, 32, 2, true);
  }
  {
    const std::size_t n = 1024;
    Rng rng(3);
    Csr s = RandomCsr(n, n, 0.05, rng);
    Matrix b = Matrix::RandomNormal(n, 64, rng);
    Matrix c(n, 64);
    TimeKernel(json, t, "spmm_csr", n, 8 * scale, 2 * s.nnz() * 64,
               [&] { SpmmCsr(s, b, c); });
  }
  {
    const std::size_t n = fast ? 256 : 1024;
    Rng rng(4);
    core::Butterfly bf(n, core::ButterflyParam::kGivens, true, rng);
    Matrix x = Matrix::RandomNormal(50, n, rng);
    Matrix y(50, n);
    TimeKernel(json, t, "butterfly_forward", n, 8 * scale,
               50 * 4 * (n / 2) * static_cast<std::size_t>(std::log2(n)),
               [&] { bf.Forward(x, y); });
  }
  {
    Rng rng(5);
    core::PixelflyConfig cfg;  // paper defaults (n=1024, b=16, s=64, r=96)
    core::Pixelfly pf(cfg, rng);
    Matrix x = Matrix::RandomNormal(50, cfg.n, rng);
    Matrix y(50, cfg.n);
    TimeKernel(json, t, "pixelfly_forward", cfg.n, 4 * scale, 50 * cfg.n,
               [&] { pf.Forward(x, y); });
  }
  {
    const std::size_t n = 1024;
    Rng rng(6);
    Matrix x = Matrix::RandomNormal(50, n, rng);
    TimeKernel(json, t, "fwht_rows", n, 8 * scale,
               50 * n * static_cast<std::size_t>(std::log2(n)),
               [&] { core::FwhtRows(x); });
  }
  {
    const std::size_t n = 1024;
    Rng rng(7);
    std::vector<core::Cpx> v(n);
    for (auto& c : v) c = core::Cpx(rng.Normal(), rng.Normal());
    TimeKernel(json, t, "fft", n, 16 * scale,
               n * static_cast<std::size_t>(std::log2(n)),
               [&] { core::Fft(v); });
  }
  {
    const std::size_t n = 1024;
    Rng rng(8);
    std::vector<float> c(n), x(n), out(n);
    rng.FillNormal(c.data(), n, 1.0f);
    rng.FillNormal(x.data(), n, 1.0f);
    TimeKernel(json, t, "circular_convolve", n, 8 * scale, n,
               [&] { core::CircularConvolve(c, x, out); });
  }
  t.Print();
}

// ---------------------------------------------------------------------------
// Dispatch benchmark: one compute set of many tiny mixed-codelet vertices,
// where per-vertex dispatch overhead dominates the arithmetic.

struct DispatchShape {
  std::size_t tiles = 64;
  std::size_t per_tile = 32;  // vertices of EACH codelet per tile
  std::size_t elems = 8;      // span elements per vertex
};

ipu::ComputeSetId BuildDispatchGraph(ipu::Session& session,
                                     const DispatchShape& shape) {
  ipu::Graph& g = session.graph();
  const ipu::ComputeSetId cs = g.addComputeSet("dispatch");
  for (std::size_t tile = 0; tile < shape.tiles; ++tile) {
    const std::size_t n = shape.per_tile * shape.elems;
    const std::string suffix = "_" + std::to_string(tile);
    ipu::Tensor x = g.addVariable("x" + suffix, n);
    ipu::Tensor y = g.addVariable("y" + suffix, n);
    ipu::Tensor z = g.addVariable("z" + suffix, n);
    ipu::Tensor w = g.addVariable("w" + suffix, n);
    ipu::Tensor d = g.addVariable("d" + suffix, shape.per_tile);
    for (ipu::Tensor t : {x, y, z, w, d}) g.setTileMapping(t, tile);
    for (std::size_t i = 0; i < shape.per_tile; ++i) {
      const ipu::Tensor xi = x.slice(i * shape.elems, shape.elems);
      ipu::VertexId relu = g.addVertex(cs, ipu::codelets::kRelu, tile);
      g.connect(relu, "x", xi);
      g.connect(relu, "y", y.slice(i * shape.elems, shape.elems), true);
      ipu::VertexId axpy = g.addVertex(cs, ipu::codelets::kScaledAdd, tile);
      g.connect(axpy, "x", xi);
      g.connect(axpy, "y", z.slice(i * shape.elems, shape.elems), true);
      g.setInitialValue(axpy, "alpha", 0.5 + 0.25 * static_cast<double>(i % 3));
      ipu::VertexId diag = g.addVertex(cs, ipu::codelets::kDiagMul, tile);
      g.connect(diag, "d", d.slice(i, 1));
      g.connect(diag, "x", xi);
      g.connect(diag, "y", w.slice(i * shape.elems, shape.elems), true);
      g.setInitialValue(diag, "batch", static_cast<double>(shape.elems));
    }
  }
  return cs;
}

struct DispatchResult {
  double build_ns_per_vertex = 0.0;
  double run_ns_per_vertex = 0.0;
  double vertices_per_dispatch = 0.0;
};

DispatchResult RunDispatch(const DispatchShape& shape, std::size_t runs) {
  ipu::ResetEngineHostStats();
  ipu::SessionOptions so;
  so.execute = true;
  so.host_threads = 1;  // dispatch overhead per vertex, not thread scaling
  ipu::Session session(ipu::Gc200(), so);
  const ipu::ComputeSetId cs = BuildDispatchGraph(session, shape);
  REPRO_REQUIRE(session.compile(ipu::Program::Execute(cs)).ok(),
                "dispatch bench graph failed to compile");
  Rng rng(7);
  const ipu::Graph& g = session.graph();
  for (std::size_t vi = 0; vi < g.variables().size(); ++vi) {
    const std::size_t numel = g.variables()[vi].numel;
    std::vector<float> init(numel);
    rng.FillNormal(init.data(), init.size(), 1.0f);
    session.writeTensor(
        ipu::Tensor{static_cast<ipu::VarId>(vi), 0, numel, 1, numel}, init);
  }
  for (std::size_t i = 0; i < runs; ++i) session.run();
  const ipu::EngineHostStats s = ipu::EngineHostStatsSnapshot();
  DispatchResult r;
  r.build_ns_per_vertex = s.build_vertices > 0
                              ? s.build_seconds * 1e9 /
                                    static_cast<double>(s.build_vertices)
                              : 0.0;
  r.run_ns_per_vertex =
      s.run_vertices > 0
          ? s.run_seconds * 1e9 / static_cast<double>(s.run_vertices)
          : 0.0;
  r.vertices_per_dispatch =
      s.run_dispatches > 0 ? static_cast<double>(s.run_vertices) /
                                 static_cast<double>(s.run_dispatches)
                           : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool fast = cli.Fast();
  BenchIo io("kernels", cli);
  BenchJsonWriter& json = io.json();

  if (!cli.GetBool("dispatch-only", false)) RunHostKernels(json, fast);

  PrintBanner("Engine vertex dispatch: KernelPlan batches");
  DispatchShape shape;
  shape.tiles = cli.GetInt("tiles", fast ? 32 : 64);
  shape.per_tile = cli.GetInt("per-tile", 32);
  shape.elems = cli.GetInt("elems", 8);
  const std::size_t runs = cli.GetInt("runs", fast ? 60 : 200);
  const std::size_t vertices = shape.tiles * shape.per_tile * 3;
  const DispatchResult r = RunDispatch(shape, runs);

  Table t({"dispatch", "vertices", "runs", "build ns/vtx", "run ns/vtx",
           "vtx/dispatch"});
  t.AddRow({"kernel_plan", Table::Int(static_cast<long long>(vertices)),
            Table::Int(static_cast<long long>(runs)),
            Table::Num(r.build_ns_per_vertex, 1),
            Table::Num(r.run_ns_per_vertex, 1),
            Table::Num(r.vertices_per_dispatch, 1)});
  t.Print();

  char rec[320];
  std::snprintf(rec, sizeof rec,
                "{\"dispatch\": \"kernel_plan\", \"vertices\": %zu, "
                "\"runs\": %zu, \"build_ns_per_vertex\": %.17g, "
                "\"run_ns_per_vertex\": %.17g, "
                "\"run_vertices_per_dispatch\": %.17g}",
                vertices, runs, r.build_ns_per_vertex, r.run_ns_per_vertex,
                r.vertices_per_dispatch);
  json.Add(rec);
  io.Finish();
  return 0;
}
