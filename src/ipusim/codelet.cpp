#include "ipusim/codelet.h"

#include <cmath>

#include "linalg/gemm.h"
#include "util/bitops.h"

namespace repro::ipu {
namespace {

// --- arithmetic cores -------------------------------------------------------
//
// Cores applied per vertex by the builtins' compute functions. The comments
// give each formula and its accumulation order; tests/test_kernels.cpp holds
// every builtin bitwise to an independent host reference written from them.
// The dense GEMM and pixelfly block products run on the host trainer's
// register-tiled core (GemmSerial in linalg/gemm.h) on the engine's thread;
// every other core is a plain loop nest.
//
// Shapes and indices come from vertex immediates and state, which a loaded
// artifact can set to anything: they enter through ToSize and are checked
// against edge sizes without forming a product that could wrap, so no
// hostile value can index past an edge.

// A shape or index value as a size; it must be a finite, non-negative
// integer (casting NaN, a negative or a too-large double to size_t is
// undefined).
std::size_t ToSize(double x, const char* what) {
  REPRO_REQUIRE(x >= 0.0 && x < 0x1p64 && x == std::floor(x),
                "vertex %s = %g is not a size", what, x);
  return static_cast<std::size_t>(x);
}

// size == rows * cols, decided without forming the product.
bool IsProduct(std::size_t size, std::size_t rows, std::size_t cols) {
  return rows == 0 ? size == 0 : size % rows == 0 && size / rows == cols;
}

// Dense block GEMM: out(m x n) (+)= a(m x k) * b(k x n), every element
// summed over k in ascending order, from out when accumulating, else from 0.
void GemmCore(std::size_t m, std::size_t k, std::size_t n, bool accumulate,
              std::span<const float> a, std::span<const float> b,
              std::span<float> out) {
  REPRO_REQUIRE(IsProduct(a.size(), m, k) && IsProduct(b.size(), k, n) &&
                    IsProduct(out.size(), m, n),
                "gemm vertex shape mismatch: a=%zu b=%zu out=%zu "
                "(m=%zu k=%zu n=%zu)",
                a.size(), b.size(), out.size(), m, k, n);
  GemmSerial(m, k, n, a.data(), b.data(), out.data(), accumulate);
}

void AxpyCore(float alpha, std::span<const float> x, std::span<float> y) {
  REPRO_REQUIRE(x.size() == y.size(), "ScaledAdd size mismatch");
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
}

void ReluCore(std::span<const float> x, std::span<float> y) {
  REPRO_REQUIRE(x.size() == y.size(), "Relu size mismatch");
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
}

void BiasReluCore(std::size_t batch, bool relu, std::span<const float> bias,
                  std::span<const float> x, std::span<float> y) {
  REPRO_REQUIRE(IsProduct(x.size(), bias.size(), batch) &&
                    y.size() == x.size(),
                "BiasRelu shape mismatch");
  for (std::size_t l = 0; l < bias.size(); ++l) {
    const float b = bias[l];
    for (std::size_t j = 0; j < batch; ++j) {
      const float s = x[l * batch + j] + b;
      y[l * batch + j] = relu && s < 0.0f ? 0.0f : s;
    }
  }
}

void DiagMulCore(std::size_t batch, std::span<const float> d,
                 std::span<const float> x, std::span<float> y) {
  REPRO_REQUIRE(IsProduct(x.size(), d.size(), batch) && y.size() == x.size(),
                "DiagMul shape mismatch");
  for (std::size_t l = 0; l < d.size(); ++l) {
    for (std::size_t j = 0; j < batch; ++j) {
      y[l * batch + j] = d[l] * x[l * batch + j];
    }
  }
}

}  // namespace

void ButterflyCore(std::size_t batch, std::span<const float> w,
                   std::span<const float> xt, std::span<const float> xb,
                   std::span<float> yt, std::span<float> yb) {
  const std::size_t pairs = w.size() / 4;
  REPRO_REQUIRE(IsProduct(xt.size(), pairs, batch) && xb.size() == xt.size() &&
                    yt.size() == xt.size() && yb.size() == xt.size(),
                "Butterfly2x2 shape mismatch");
  for (std::size_t p = 0; p < pairs; ++p) {
    const float a = w[4 * p + 0], b = w[4 * p + 1];
    const float c = w[4 * p + 2], d = w[4 * p + 3];
    for (std::size_t j = 0; j < batch; ++j) {
      const float t = xt[p * batch + j];
      const float u = xb[p * batch + j];
      yt[p * batch + j] = a * t + b * u;
      yb[p * batch + j] = c * t + d * u;
    }
  }
}

namespace {

void HadamardCore(std::span<const float> xt, std::span<const float> xb,
                  std::span<float> yt, std::span<float> yb) {
  REPRO_REQUIRE(xt.size() == xb.size() && yt.size() == xt.size() &&
                    yb.size() == xt.size(),
                "Hadamard2 shape mismatch");
  for (std::size_t i = 0; i < xt.size(); ++i) {
    const float t = xt[i], u = xb[i];
    yt[i] = t + u;
    yb[i] = t - u;
  }
}

void SparseRowsMacCore(std::size_t m, std::size_t n, bool accumulate,
                       std::span<const float> b, std::span<float> out,
                       std::span<const float> st) {
  REPRO_REQUIRE(IsProduct(out.size(), m, n), "SparseRowsMac out mismatch");
  if (!accumulate) {
    for (auto& o : out) o = 0.0f;
  }
  std::size_t pos = 0;
  for (std::size_t r = 0; r < m; ++r) {
    REPRO_REQUIRE(pos < st.size(), "SparseRowsMac state underrun");
    const std::size_t count = ToSize(st[pos++], "SparseRowsMac count");
    for (std::size_t e = 0; e < count; ++e) {
      REPRO_REQUIRE(pos + 1 < st.size(), "SparseRowsMac state underrun");
      const std::size_t col = ToSize(st[pos], "SparseRowsMac column");
      const float val = st[pos + 1];
      pos += 2;
      REPRO_REQUIRE(n == 0 || col < b.size() / n,
                    "SparseRowsMac column out of range");
      for (std::size_t j = 0; j < n; ++j) {
        out[r * n + j] += val * b[col * n + j];
      }
    }
  }
}

void SparseCooMacCore(std::size_t n, bool accumulate, std::span<const float> b,
                      std::span<float> out, std::span<const float> st) {
  if (!accumulate) {
    for (auto& o : out) o = 0.0f;
  }
  REPRO_REQUIRE(st.size() % 3 == 0, "SparseCooMac ragged state");
  for (std::size_t e = 0; e < st.size(); e += 3) {
    const std::size_t row = ToSize(st[e], "SparseCooMac row");
    const std::size_t col = ToSize(st[e + 1], "SparseCooMac column");
    const float val = st[e + 2];
    REPRO_REQUIRE(n == 0 || (row < out.size() / n && col < b.size() / n),
                  "SparseCooMac index out of range");
    for (std::size_t j = 0; j < n; ++j) {
      out[row * n + j] += val * b[col * n + j];
    }
  }
}

// One pixelfly block product: out(b x batch) += w(b x b) * x(b x batch),
// every element summed over p in ascending order. BlockGemmAmp calls it once
// per block, in connection order.
void BlockMacCore(std::size_t b, std::size_t batch, std::span<const float> w,
                  std::span<const float> x, std::span<float> out) {
  REPRO_REQUIRE(IsProduct(w.size(), b, b) && IsProduct(x.size(), b, batch),
                "BlockGemmAmp block shape mismatch: w=%zu x=%zu "
                "(b=%zu batch=%zu)",
                w.size(), x.size(), b, batch);
  GemmSerial(b, b, batch, w.data(), x.data(), out.data(), /*accumulate=*/true);
}

// --- dense codelets ---------------------------------------------------------

// Shared dense block GEMM: out(m x n) (+)= a(m x k) * b(k x n).
void BlockGemmCompute(const ResolvedArgs& g) {
  const int fa = g.fieldSlot("a"), fb = g.fieldSlot("b");
  const int fo = g.fieldSlot("out");
  const int im = g.immSlot("m"), ik = g.immSlot("k"), in = g.immSlot("n");
  const int ia = g.immSlot("accumulate");
  for (std::size_t v = 0; v < g.size(); ++v) {
    const std::size_t m = ToSize(g.imm(v, im), "gemm m");
    const std::size_t k = ToSize(g.imm(v, ik), "gemm k");
    const std::size_t n = ToSize(g.imm(v, in), "gemm n");
    const bool accumulate = g.imm(v, ia, 0.0) != 0.0;
    GemmCore(m, k, n, accumulate, g.edge(v, fa), g.edge(v, fb),
             g.edge(v, fo));
  }
}

double GemmFlopsOf(const VertexArgs& v) {
  return 2.0 * v.imm("m") * v.imm("k") * v.imm("n");
}

void RegisterDense(CodeletRegistry& reg) {
  // ScalarGemm: C-style MAC loops on the worker threads, no AMP. Calibrated
  // so a whole-chip naive matmul lands at the paper's ~525 GFLOP/s
  // ("IPU naive", Table 2) with scalar_cycles_per_mac = 7.25.
  reg.Register(Codelet{
      .name = codelets::kScalarGemm,
      .code_bytes = 320,
      .base_state_bytes = 32,
      .cycles =
          [](const VertexArgs& v) {
            // "cpm_mult" scales cycles-per-MAC above the straight-line scalar
            // kernel; the staged/blocked matmul sets it to model temp-buffer
            // traffic (see matmul.cpp).
            return v.imm("m") * v.imm("k") * v.imm("n") *
                       v.arch().scalar_cycles_per_mac * v.imm("cpm_mult", 1.0) +
                   30.0;
          },
      .flops = GemmFlopsOf,
      .compute = BlockGemmCompute,
  });

  // AmpGemm: the Accumulating Matrix Product pipeline. Streams 16 MACs per
  // cycle but only on 16-padded m/k dimensions, which is what makes tiny
  // blocks (e.g. butterfly's 2x2) catastrophically inefficient on it.
  reg.Register(Codelet{
      .name = codelets::kAmpGemm,
      .code_bytes = 512,
      .base_state_bytes = 48,
      .cycles =
          [](const VertexArgs& v) {
            const double m = static_cast<double>(Pad16(
                static_cast<std::size_t>(v.imm("m"))));
            const double k = static_cast<double>(Pad16(
                static_cast<std::size_t>(v.imm("k"))));
            return m * k * v.imm("n") / v.arch().amp_macs_per_cycle +
                   v.arch().amp_setup_cycles;
          },
      .flops = GemmFlopsOf,
      .compute = BlockGemmCompute,
  });

  // ReduceAdd: out[j] = sum_i partials_i[j]; used by k-split matmuls.
  reg.Register(Codelet{
      .name = codelets::kReduceAdd,
      .code_bytes = 192,
      .base_state_bytes = 24,
      .cycles =
          [](const VertexArgs& v) {
            return static_cast<double>(v.totalElems("partials")) /
                       v.arch().simd_flops_per_cycle +
                   16.0;
          },
      .flops =
          [](const VertexArgs& v) {
            return static_cast<double>(v.totalElems("partials"));
          },
      .compute =
          [](const ResolvedArgs& g) {
            const int fo = g.fieldSlot("out");
            const int fp = g.fieldSlot("partials");
            for (std::size_t v = 0; v < g.size(); ++v) {
              auto out = g.edge(v, fo);
              for (auto& o : out) o = 0.0f;
              const std::size_t fan = g.fan(v, fp);
              for (std::size_t i = 0; i < fan; ++i) {
                auto p = g.edge(v, fp, i);
                REPRO_REQUIRE(p.size() == out.size(),
                              "ReduceAdd ragged partial");
                for (std::size_t j = 0; j < out.size(); ++j) out[j] += p[j];
              }
            }
          },
  });

  // ScaledAdd: y += alpha * x (axpy), vectorised.
  reg.Register(Codelet{
      .name = codelets::kScaledAdd,
      .code_bytes = 128,
      .base_state_bytes = 24,
      .cycles =
          [](const VertexArgs& v) {
            return static_cast<double>(v.totalElems("x")) /
                       v.arch().simd_flops_per_cycle +
                   8.0;
          },
      .flops =
          [](const VertexArgs& v) {
            return 2.0 * static_cast<double>(v.totalElems("x"));
          },
      .compute =
          [](const ResolvedArgs& g) {
            const int fx = g.fieldSlot("x"), fy = g.fieldSlot("y");
            const int ial = g.immSlot("alpha");
            for (std::size_t v = 0; v < g.size(); ++v) {
              const float alpha = static_cast<float>(g.imm(v, ial, 1.0));
              AxpyCore(alpha, g.edge(v, fx), g.edge(v, fy));
            }
          },
  });

  reg.Register(Codelet{
      .name = codelets::kRelu,
      .code_bytes = 96,
      .base_state_bytes = 24,
      .cycles =
          [](const VertexArgs& v) {
            return static_cast<double>(v.totalElems("x")) /
                       v.arch().simd_flops_per_cycle +
                   8.0;
          },
      .flops =
          [](const VertexArgs& v) {
            return static_cast<double>(v.totalElems("x"));
          },
      .compute =
          [](const ResolvedArgs& g) {
            const int fx = g.fieldSlot("x"), fy = g.fieldSlot("y");
            for (std::size_t v = 0; v < g.size(); ++v) {
              ReluCore(g.edge(v, fx), g.edge(v, fy));
            }
          },
  });

  // BiasRelu: y[l, j] = act(x[l, j] + bias[l]) over L feature rows of
  // `batch` columns ("relu" immediate 0 => identity). The fused bias +
  // activation epilogue of the serving forward pass; vectorises like the
  // other elementwise codelets.
  reg.Register(Codelet{
      .name = codelets::kBiasRelu,
      .code_bytes = 128,
      .base_state_bytes = 24,
      .cycles =
          [](const VertexArgs& v) {
            return 2.0 * static_cast<double>(v.totalElems("x")) /
                       v.arch().simd_flops_per_cycle +
                   10.0;
          },
      .flops =
          [](const VertexArgs& v) {
            return 2.0 * static_cast<double>(v.totalElems("x"));
          },
      .compute =
          [](const ResolvedArgs& g) {
            const int fb = g.fieldSlot("bias"), fx = g.fieldSlot("x");
            const int fy = g.fieldSlot("y");
            const int ibt = g.immSlot("batch"), irl = g.immSlot("relu");
            for (std::size_t v = 0; v < g.size(); ++v) {
              const std::size_t batch = ToSize(g.imm(v, ibt), "BiasRelu batch");
              const bool relu = g.imm(v, irl, 1.0) != 0.0;
              BiasReluCore(batch, relu, g.edge(v, fb), g.edge(v, fx),
                           g.edge(v, fy));
            }
          },
  });

  // DiagMul: y[l, j] = d[l] * x[l, j] for L rows of `batch` columns.
  reg.Register(Codelet{
      .name = codelets::kDiagMul,
      .code_bytes = 128,
      .base_state_bytes = 24,
      .cycles =
          [](const VertexArgs& v) {
            return static_cast<double>(v.totalElems("x")) /
                       v.arch().simd_flops_per_cycle +
                   8.0;
          },
      .flops =
          [](const VertexArgs& v) {
            return static_cast<double>(v.totalElems("x"));
          },
      .compute =
          [](const ResolvedArgs& g) {
            const int fd = g.fieldSlot("d"), fx = g.fieldSlot("x");
            const int fy = g.fieldSlot("y");
            const int ibt = g.immSlot("batch");
            for (std::size_t v = 0; v < g.size(); ++v) {
              const std::size_t batch = ToSize(g.imm(v, ibt), "DiagMul batch");
              DiagMulCore(batch, g.edge(v, fd), g.edge(v, fx), g.edge(v, fy));
            }
          },
  });
}

void RegisterStructured(CodeletRegistry& reg) {
  // Butterfly2x2: applies L independent 2x2 blocks to `batch` columns:
  //   [y_top]   [a b] [x_top]
  //   [y_bot] = [c d] [x_bot]     with w = [a0 b0 c0 d0 a1 b1 ...].
  //
  // Cycle model: this is the PopTorch-style lowering the paper measures --
  // strided gathers plus tiny matmuls that cannot stream through the AMP.
  // "cpm" (cycles per MAC, default 2.5) is the calibration point that puts
  // the butterfly/Linear crossover at N ~ 2^10 and the large-N speedup at
  // ~1.6x (paper Fig. 6, right).
  reg.Register(Codelet{
      .name = codelets::kButterfly2x2,
      .code_bytes = 384,
      .base_state_bytes = 32,
      .cycles =
          [](const VertexArgs& v) {
            const double macs = 4.0 * static_cast<double>(v.totalElems("x_top"));
            return macs * v.imm("cpm", 2.5) + 20.0;
          },
      .flops =
          [](const VertexArgs& v) {
            return 8.0 * static_cast<double>(v.totalElems("x_top"));
          },
      .compute =
          [](const ResolvedArgs& g) {
            const int fw = g.fieldSlot("w");
            const int fxt = g.fieldSlot("x_top"), fxb = g.fieldSlot("x_bot");
            const int fyt = g.fieldSlot("y_top"), fyb = g.fieldSlot("y_bot");
            const int ibt = g.immSlot("batch");
            for (std::size_t v = 0; v < g.size(); ++v) {
              const std::size_t batch =
                  ToSize(g.imm(v, ibt), "Butterfly2x2 batch");
              ButterflyCore(batch, g.edge(v, fw), g.edge(v, fxt),
                            g.edge(v, fxb), g.edge(v, fyt), g.edge(v, fyb));
            }
          },
  });

  // Hadamard2: one FWHT stage; same data motion as Butterfly2x2 but with
  // fixed +-1 coefficients, so it vectorises (add/sub only).
  reg.Register(Codelet{
      .name = codelets::kHadamard2,
      .code_bytes = 192,
      .base_state_bytes = 24,
      .cycles =
          [](const VertexArgs& v) {
            return 2.0 * static_cast<double>(v.totalElems("x_top")) /
                       v.arch().simd_flops_per_cycle +
                   12.0;
          },
      .flops =
          [](const VertexArgs& v) {
            return 2.0 * static_cast<double>(v.totalElems("x_top"));
          },
      .compute =
          [](const ResolvedArgs& g) {
            const int fxt = g.fieldSlot("x_top"), fxb = g.fieldSlot("x_bot");
            const int fyt = g.fieldSlot("y_top"), fyb = g.fieldSlot("y_bot");
            for (std::size_t v = 0; v < g.size(); ++v) {
              HadamardCore(g.edge(v, fxt), g.edge(v, fxb), g.edge(v, fyt),
                           g.edge(v, fyb));
            }
          },
  });

  // SparseRowsMac: popsparse-style static sparsity. The CSR slice owned by
  // the vertex is baked into vertex state as
  //   [count_0, (col, val)*count_0, count_1, ...]  for `m` local rows,
  // and multiplies a dense (k x n) block: out(m x n) (+)= S_local * b.
  // "spm" = cycles per MAC (default 3.0): static schedules are better than
  // generic scalar code (5.0) but far from the AMP (1/16).
  reg.Register(Codelet{
      .name = codelets::kSparseRowsMac,
      .code_bytes = 448,
      .base_state_bytes = 40,
      .cycles =
          [](const VertexArgs& v) {
            const auto m = v.imm("m");
            const double nnz = (static_cast<double>(v.state().size()) - m) / 2.0;
            return nnz * v.imm("n") * v.imm("spm", 3.0) + 4.0 * m + 30.0;
          },
      .flops =
          [](const VertexArgs& v) {
            const double nnz =
                (static_cast<double>(v.state().size()) - v.imm("m")) / 2.0;
            return 2.0 * nnz * v.imm("n");
          },
      .compute =
          [](const ResolvedArgs& g) {
            const int fb = g.fieldSlot("b"), fo = g.fieldSlot("out");
            const int im = g.immSlot("m"), in = g.immSlot("n");
            const int ia = g.immSlot("accumulate");
            for (std::size_t v = 0; v < g.size(); ++v) {
              const std::size_t m = ToSize(g.imm(v, im), "SparseRowsMac m");
              const std::size_t n = ToSize(g.imm(v, in), "SparseRowsMac n");
              const bool accumulate = g.imm(v, ia, 0.0) != 0.0;
              SparseRowsMacCore(m, n, accumulate, g.edge(v, fb),
                                g.edge(v, fo), g.state(v));
            }
          },
  });

  // SparseCooMac: coordinate-format sparse x dense. State holds raw
  // (row, col, val) triples with no row grouping, so every MAC pays an
  // indirect row scatter that breaks accumulator reuse: ~1.35x the CSR
  // codelet's cycles per MAC plus 50% more state bytes -- why CSR wins on
  // the IPU as well (Table 2, note 2).
  reg.Register(Codelet{
      .name = codelets::kSparseCooMac,
      .code_bytes = 416,
      .base_state_bytes = 40,
      .cycles =
          [](const VertexArgs& v) {
            const double nnz = static_cast<double>(v.state().size()) / 3.0;
            return nnz * v.imm("n") * v.imm("spm", 3.0) * 1.35 + 30.0;
          },
      .flops =
          [](const VertexArgs& v) {
            return 2.0 * (static_cast<double>(v.state().size()) / 3.0) *
                   v.imm("n");
          },
      .compute =
          [](const ResolvedArgs& g) {
            const int fb = g.fieldSlot("b"), fo = g.fieldSlot("out");
            const int in = g.immSlot("n"), ia = g.immSlot("accumulate");
            for (std::size_t v = 0; v < g.size(); ++v) {
              const std::size_t n = ToSize(g.imm(v, in), "SparseCooMac n");
              const bool accumulate = g.imm(v, ia, 0.0) != 0.0;
              SparseCooMacCore(n, accumulate, g.edge(v, fb), g.edge(v, fo),
                               g.state(v));
            }
          },
  });

  // BlockGemmAmp: pixelfly's flat-block-butterfly kernel. Each vertex owns
  // one output block-row: out(b x batch) (+)= sum_i w_i(b x b) * x_i(b x batch).
  // Blocks do run on the AMP, but every block pays the 16-padding and the
  // AMP setup cost -- the structured-sparsity overhead the paper identifies
  // as the reason pixelfly loses on the IPU.
  reg.Register(Codelet{
      .name = codelets::kBlockGemmAmp,
      .code_bytes = 512,
      .base_state_bytes = 48,
      .cycles =
          [](const VertexArgs& v) {
            const auto b = static_cast<std::size_t>(v.imm("b"));
            const double nblocks = static_cast<double>(v.fan("w"));
            const double padded =
                static_cast<double>(Pad16(b)) * static_cast<double>(Pad16(b));
            // "eff": AMP streaming efficiency for block-gathered operands.
            // Individual b x b blocks cannot stream back-to-back the way a
            // long dense pass does (per-block gather/scatter and weight
            // reload); ~0.3 matches block-sparse kernels on real hardware.
            const double eff = v.imm("eff", 0.3);
            return nblocks * (padded * v.imm("batch") /
                                  (v.arch().amp_macs_per_cycle * eff) +
                              v.arch().amp_setup_cycles);
          },
      .flops =
          [](const VertexArgs& v) {
            const double b = v.imm("b");
            return 2.0 * b * b * v.imm("batch") * static_cast<double>(v.fan("w"));
          },
      .compute =
          [](const ResolvedArgs& g) {
            const int fw = g.fieldSlot("w"), fx = g.fieldSlot("x");
            const int fo = g.fieldSlot("out");
            const int ib = g.immSlot("b"), ibt = g.immSlot("batch");
            const int ia = g.immSlot("accumulate");
            for (std::size_t v = 0; v < g.size(); ++v) {
              const std::size_t b = ToSize(g.imm(v, ib), "BlockGemmAmp b");
              const std::size_t batch =
                  ToSize(g.imm(v, ibt), "BlockGemmAmp batch");
              const bool accumulate = g.imm(v, ia, 0.0) != 0.0;
              auto out = g.edge(v, fo);
              REPRO_REQUIRE(IsProduct(out.size(), b, batch),
                            "BlockGemmAmp out mismatch: out=%zu "
                            "(b=%zu batch=%zu)",
                            out.size(), b, batch);
              if (!accumulate) {
                for (auto& o : out) o = 0.0f;
              }
              const std::size_t nblocks = g.fan(v, fw);
              REPRO_REQUIRE(g.fan(v, fx) == nblocks,
                            "BlockGemmAmp w/x fan mismatch");
              for (std::size_t blk = 0; blk < nblocks; ++blk) {
                BlockMacCore(b, batch, g.edge(v, fw, blk), g.edge(v, fx, blk),
                             out);
              }
            }
          },
  });
}

}  // namespace

CodeletRegistry& CodeletRegistry::Get() {
  static CodeletRegistry registry;
  return registry;
}

CodeletRegistry::CodeletRegistry() {
  RegisterDense(*this);
  RegisterStructured(*this);
}

void CodeletRegistry::Register(Codelet codelet) {
  REPRO_REQUIRE(!codelet.name.empty() && codelet.compute && codelet.cycles,
                "incomplete codelet registration");
  if (!codelet.flops) {
    codelet.flops = [](const VertexArgs&) { return 0.0; };
  }
  codelets_[codelet.name] = std::move(codelet);
}

const Codelet& CodeletRegistry::Lookup(const std::string& name) const {
  auto it = codelets_.find(name);
  REPRO_REQUIRE(it != codelets_.end(), "unknown codelet '%s'", name.c_str());
  return it->second;
}

bool CodeletRegistry::Has(const std::string& name) const {
  return codelets_.count(name) > 0;
}

}  // namespace repro::ipu
