// Kernel conformance: for every builtin codelet, the engine's KernelPlan
// dispatch on randomized shapes must reproduce a host reference written in
// this file from the formula and accumulation order codelet.cpp documents
// -- bitwise, at 1 and 4 host threads, with identical RunReports at both.
// Also covers the KernelPlan section of the ipu::Executable wire format:
// round trip, version-mismatch and truncation rejection, and referential
// validation of damaged and hostile plans; and the run-time rejection of
// artifacts whose shape immediates or sparse state would index past an edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ipusim/codelet.h"
#include "ipusim/executable.h"
#include "ipusim/session.h"
#include "util/rng.h"

namespace repro::ipu {
namespace {

// One randomized test graph: a program plus the tensors whose final bytes
// define the observable result. Builders must draw from `rng`
// deterministically so the same seed reproduces the same graph at every
// host thread count.
struct BuiltCase {
  Program prog;
  std::vector<Tensor> outs;
  // Variables drawn with every third element exactly zero.
  std::vector<VarId> zeroed;
};

using BuilderFn = std::function<BuiltCase(Graph&, Rng&)>;

// --- host reference -------------------------------------------------------
// Each builtin's formula evaluated on plain per-variable vectors, one output
// element at a time in the documented accumulation order. Shares no code
// with codelet.cpp.

using Storage = std::vector<std::vector<float>>;

// Edges of `field`, in connection order, as views into `mem`.
std::vector<std::span<float>> Edges(const Vertex& v, Storage& mem,
                                    const std::string& field) {
  std::vector<std::span<float>> out;
  for (const Edge& e : v.edges) {
    if (e.field == field) {
      out.push_back({mem[e.view.var].data() + e.view.offset, e.view.numel});
    }
  }
  return out;
}

std::span<float> One(const Vertex& v, Storage& mem, const std::string& field) {
  const auto edges = Edges(v, mem, field);
  REPRO_REQUIRE(edges.size() == 1, "field '%s' has %zu edges", field.c_str(),
                edges.size());
  return edges.front();
}

double Imm(const Vertex& v, const std::string& name, double def = 0.0) {
  auto it = v.immediates.find(name);
  return it == v.immediates.end() ? def : it->second;
}

std::size_t ImmSize(const Vertex& v, const std::string& name) {
  return static_cast<std::size_t>(Imm(v, name));
}

void RefVertex(const Vertex& v, Storage& mem) {
  const std::string& c = v.codelet;
  const bool accumulate = Imm(v, "accumulate") != 0.0;
  if (c == codelets::kRelu) {
    // y = max(x, 0)
    auto x = One(v, mem, "x");
    auto y = One(v, mem, "y");
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  } else if (c == codelets::kScaledAdd) {
    // y += alpha * x, alpha defaulting to 1
    const float alpha = static_cast<float>(Imm(v, "alpha", 1.0));
    auto x = One(v, mem, "x");
    auto y = One(v, mem, "y");
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = y[i] + alpha * x[i];
  } else if (c == codelets::kReduceAdd) {
    // out[j] = sum_i partials_i[j], partials in connection order
    auto out = One(v, mem, "out");
    const auto parts = Edges(v, mem, "partials");
    for (std::size_t j = 0; j < out.size(); ++j) {
      float acc = 0.0f;
      for (const auto& p : parts) acc += p[j];
      out[j] = acc;
    }
  } else if (c == codelets::kBiasRelu) {
    // y[l, j] = act(x[l, j] + bias[l]), act = relu unless relu == 0
    const std::size_t batch = ImmSize(v, "batch");
    const bool relu = Imm(v, "relu", 1.0) != 0.0;
    auto bias = One(v, mem, "bias");
    auto x = One(v, mem, "x");
    auto y = One(v, mem, "y");
    for (std::size_t l = 0; l < bias.size(); ++l) {
      for (std::size_t j = 0; j < batch; ++j) {
        const float s = x[l * batch + j] + bias[l];
        y[l * batch + j] = relu && s < 0.0f ? 0.0f : s;
      }
    }
  } else if (c == codelets::kDiagMul) {
    // y[l, j] = d[l] * x[l, j]
    const std::size_t batch = ImmSize(v, "batch");
    auto d = One(v, mem, "d");
    auto x = One(v, mem, "x");
    auto y = One(v, mem, "y");
    for (std::size_t l = 0; l < d.size(); ++l) {
      for (std::size_t j = 0; j < batch; ++j) {
        y[l * batch + j] = d[l] * x[l * batch + j];
      }
    }
  } else if (c == codelets::kButterfly2x2) {
    // [y_top; y_bot] = [a b; c d] [x_top; x_bot] per pair p, with
    // w = [a0 b0 c0 d0 a1 b1 ...]
    const std::size_t batch = ImmSize(v, "batch");
    auto w = One(v, mem, "w");
    auto xt = One(v, mem, "x_top");
    auto xb = One(v, mem, "x_bot");
    auto yt = One(v, mem, "y_top");
    auto yb = One(v, mem, "y_bot");
    for (std::size_t p = 0; p < w.size() / 4; ++p) {
      for (std::size_t j = 0; j < batch; ++j) {
        const float t = xt[p * batch + j], u = xb[p * batch + j];
        yt[p * batch + j] = w[4 * p] * t + w[4 * p + 1] * u;
        yb[p * batch + j] = w[4 * p + 2] * t + w[4 * p + 3] * u;
      }
    }
  } else if (c == codelets::kHadamard2) {
    // y_top = x_top + x_bot, y_bot = x_top - x_bot
    auto xt = One(v, mem, "x_top");
    auto xb = One(v, mem, "x_bot");
    auto yt = One(v, mem, "y_top");
    auto yb = One(v, mem, "y_bot");
    for (std::size_t i = 0; i < xt.size(); ++i) {
      const float t = xt[i], u = xb[i];
      yt[i] = t + u;
      yb[i] = t - u;
    }
  } else if (c == codelets::kScalarGemm || c == codelets::kAmpGemm) {
    // out(m x n) (+)= a(m x k) * b(k x n), summed over k in ascending order
    const std::size_t m = ImmSize(v, "m"), k = ImmSize(v, "k");
    const std::size_t n = ImmSize(v, "n");
    auto a = One(v, mem, "a");
    auto b = One(v, mem, "b");
    auto out = One(v, mem, "out");
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        float acc = accumulate ? out[i * n + j] : 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
        out[i * n + j] = acc;
      }
    }
  } else if (c == codelets::kSparseRowsMac) {
    // out(m x n) (+)= S * b, S baked as [count_r, (col, val) * count_r] per
    // row, entries in state order
    const std::size_t n = ImmSize(v, "n");
    auto b = One(v, mem, "b");
    auto out = One(v, mem, "out");
    if (!accumulate) std::fill(out.begin(), out.end(), 0.0f);
    std::size_t pos = 0;
    for (std::size_t r = 0; r < ImmSize(v, "m"); ++r) {
      const auto count = static_cast<std::size_t>(v.state[pos++]);
      for (std::size_t e = 0; e < count; ++e, pos += 2) {
        const auto col = static_cast<std::size_t>(v.state[pos]);
        const float val = v.state[pos + 1];
        for (std::size_t j = 0; j < n; ++j) {
          out[r * n + j] = out[r * n + j] + val * b[col * n + j];
        }
      }
    }
  } else if (c == codelets::kSparseCooMac) {
    // out (+)= S * b, S baked as (row, col, val) triples in state order
    const std::size_t n = ImmSize(v, "n");
    auto b = One(v, mem, "b");
    auto out = One(v, mem, "out");
    if (!accumulate) std::fill(out.begin(), out.end(), 0.0f);
    for (std::size_t e = 0; e < v.state.size(); e += 3) {
      const auto row = static_cast<std::size_t>(v.state[e]);
      const auto col = static_cast<std::size_t>(v.state[e + 1]);
      const float val = v.state[e + 2];
      for (std::size_t j = 0; j < n; ++j) {
        out[row * n + j] = out[row * n + j] + val * b[col * n + j];
      }
    }
  } else if (c == codelets::kBlockGemmAmp) {
    // out(b x batch) (+)= sum_blk w_blk(b x b) * x_blk(b x batch): blocks
    // in connection order, within a block over w's columns in ascending
    // order
    const std::size_t bs = ImmSize(v, "b"), batch = ImmSize(v, "batch");
    const auto w = Edges(v, mem, "w");
    const auto x = Edges(v, mem, "x");
    ASSERT_EQ(w.size(), x.size());
    auto out = One(v, mem, "out");
    for (std::size_t i = 0; i < bs; ++i) {
      for (std::size_t j = 0; j < batch; ++j) {
        float acc = accumulate ? out[i * batch + j] : 0.0f;
        for (std::size_t blk = 0; blk < w.size(); ++blk) {
          for (std::size_t p = 0; p < bs; ++p) {
            acc += w[blk][i * bs + p] * x[blk][p * batch + j];
          }
        }
        out[i * batch + j] = acc;
      }
    }
  } else {
    ADD_FAILURE() << "no host reference for codelet " << c;
  }
}

// Runs `p` (Sequence/Execute only) over `mem`, compute set by compute set.
void RefRun(const Graph& g, const Program& p, Storage& mem) {
  if (p.kind == Program::Kind::kExecute) {
    for (VertexId vid : g.verticesInCs(p.cs)) RefVertex(g.vertices()[vid], mem);
    return;
  }
  ASSERT_EQ(p.kind, Program::Kind::kSequence);
  for (const Program& c : p.children) RefRun(g, c, mem);
}

struct CaseRun {
  std::vector<std::vector<float>> outs;  // engine
  std::vector<std::vector<float>> ref;   // host reference
  RunReport report;
};

CaseRun RunCase(const BuilderFn& build, std::uint64_t seed,
                std::size_t host_threads) {
  SessionOptions so;
  so.execute = true;
  so.host_threads = host_threads;
  Session session(Gc200(), so);
  Rng shape_rng(seed);
  BuiltCase bc = build(session.graph(), shape_rng);
  Status st = session.compile(bc.prog);
  EXPECT_TRUE(st.ok()) << st.message();
  // Every variable (inputs AND outputs: accumulate-mode vertices read their
  // initial output bytes) gets deterministic data, mirrored in the
  // reference's storage.
  Rng data_rng(seed ^ 0x9e3779b97f4a7c15ull);
  const Graph& g = session.graph();
  Storage mem(g.variables().size());
  for (std::size_t vi = 0; vi < g.variables().size(); ++vi) {
    const std::size_t numel = g.variables()[vi].numel;
    mem[vi].resize(numel);
    data_rng.FillNormal(mem[vi].data(), numel, 1.0f);
    if (std::find(bc.zeroed.begin(), bc.zeroed.end(), vi) != bc.zeroed.end()) {
      for (std::size_t i = 0; i < numel; i += 3) mem[vi][i] = 0.0f;
    }
    session.writeTensor(Tensor{static_cast<VarId>(vi), 0, numel, 1, numel},
                        mem[vi]);
  }
  CaseRun r;
  r.report = session.run();
  RefRun(g, bc.prog, mem);
  for (const Tensor& t : bc.outs) {
    std::vector<float> out(t.numel);
    session.readTensor(t, out);
    r.outs.push_back(std::move(out));
    const float* ref = mem[t.var].data() + t.offset;
    r.ref.emplace_back(ref, ref + t.numel);
  }
  return r;
}

// The conformance contract: for several random seeds, tensors at 1 and 4
// host threads equal the host reference bit for bit, and the two runs'
// reports agree field for field.
void CheckKernel(const BuilderFn& build) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const CaseRun one = RunCase(build, seed, 1);
    const CaseRun four = RunCase(build, seed, 4);
    for (const CaseRun* run : {&one, &four}) {
      ASSERT_EQ(run->outs.size(), run->ref.size());
      for (std::size_t i = 0; i < run->outs.size(); ++i) {
        ASSERT_EQ(run->outs[i].size(), run->ref[i].size());
        EXPECT_EQ(std::memcmp(run->outs[i].data(), run->ref[i].data(),
                              run->outs[i].size() * sizeof(float)),
                  0)
            << "tensor " << i << " differs from the host reference (seed "
            << seed << ", threads " << (run == &one ? 1 : 4) << ")";
      }
    }
    EXPECT_EQ(one.report.ToJson(), four.report.ToJson()) << "seed " << seed;
  }
}

std::size_t RandSize(Rng& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.Below(hi - lo + 1));
}

// Adds one variable mapped to `tile` and returns its full-window handle.
Tensor Var(Graph& g, const std::string& name, std::size_t numel,
           std::size_t tile) {
  Tensor t = g.addVariable(name, numel);
  g.setTileMapping(t, tile);
  return t;
}

// --- per-codelet randomized builders ---------------------------------------
// Each builder spreads several random-shaped vertices over two tiles, so the
// specialize-kernels pass emits real multi-vertex groups on more than one tile.

BuiltCase BuildRelu(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t n = RandSize(rng, 1, 64);
    const std::string s = std::to_string(i);
    Tensor x = Var(g, "x" + s, n, tile), y = Var(g, "y" + s, n, tile);
    VertexId v = g.addVertex(cs, codelets::kRelu, tile);
    g.connect(v, "x", x);
    g.connect(v, "y", y, true);
    bc.outs.push_back(y);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildScaledAdd(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t n = RandSize(rng, 1, 48);
    const std::string s = std::to_string(i);
    Tensor x = Var(g, "x" + s, n, tile), y = Var(g, "y" + s, n, tile);
    VertexId v = g.addVertex(cs, codelets::kScaledAdd, tile);
    g.connect(v, "x", x);
    g.connect(v, "y", y, true);
    // Some vertices rely on the default alpha, exercising imm_present=0.
    if (i % 3 != 0) g.setInitialValue(v, "alpha", rng.Normal());
    bc.outs.push_back(y);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildReduceAdd(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t n = RandSize(rng, 1, 32);
    const std::size_t fan = RandSize(rng, 1, 4);
    const std::string s = std::to_string(i);
    Tensor parts = Var(g, "p" + s, n * fan, tile);
    Tensor out = Var(g, "o" + s, n, tile);
    VertexId v = g.addVertex(cs, codelets::kReduceAdd, tile);
    for (std::size_t f = 0; f < fan; ++f) {
      g.connect(v, "partials", parts.slice(f * n, n));
    }
    g.connect(v, "out", out, true);
    bc.outs.push_back(out);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildBiasRelu(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t rows = RandSize(rng, 1, 8);
    const std::size_t batch = RandSize(rng, 1, 16);
    const std::string s = std::to_string(i);
    Tensor bias = Var(g, "b" + s, rows, tile);
    Tensor x = Var(g, "x" + s, rows * batch, tile);
    Tensor y = Var(g, "y" + s, rows * batch, tile);
    VertexId v = g.addVertex(cs, codelets::kBiasRelu, tile);
    g.connect(v, "bias", bias);
    g.connect(v, "x", x);
    g.connect(v, "y", y, true);
    g.setInitialValue(v, "batch", static_cast<double>(batch));
    if (i % 2 == 0) g.setInitialValue(v, "relu", 0.0);  // identity variant
    bc.outs.push_back(y);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildDiagMul(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t rows = RandSize(rng, 1, 8);
    const std::size_t batch = RandSize(rng, 1, 12);
    const std::string s = std::to_string(i);
    Tensor d = Var(g, "d" + s, rows, tile);
    Tensor x = Var(g, "x" + s, rows * batch, tile);
    Tensor y = Var(g, "y" + s, rows * batch, tile);
    VertexId v = g.addVertex(cs, codelets::kDiagMul, tile);
    g.connect(v, "d", d);
    g.connect(v, "x", x);
    g.connect(v, "y", y, true);
    g.setInitialValue(v, "batch", static_cast<double>(batch));
    bc.outs.push_back(y);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildButterfly(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t rows = RandSize(rng, 1, 6);
    const std::size_t batch = RandSize(rng, 1, 10);
    const std::string s = std::to_string(i);
    Tensor w = Var(g, "w" + s, rows * 4, tile);
    Tensor xt = Var(g, "xt" + s, rows * batch, tile);
    Tensor xb = Var(g, "xb" + s, rows * batch, tile);
    Tensor yt = Var(g, "yt" + s, rows * batch, tile);
    Tensor yb = Var(g, "yb" + s, rows * batch, tile);
    VertexId v = g.addVertex(cs, codelets::kButterfly2x2, tile);
    g.connect(v, "w", w);
    g.connect(v, "x_top", xt);
    g.connect(v, "x_bot", xb);
    g.connect(v, "y_top", yt, true);
    g.connect(v, "y_bot", yb, true);
    g.setInitialValue(v, "batch", static_cast<double>(batch));
    bc.outs.push_back(yt);
    bc.outs.push_back(yb);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildHadamard(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t n = RandSize(rng, 1, 40);
    const std::string s = std::to_string(i);
    Tensor xt = Var(g, "xt" + s, n, tile), xb = Var(g, "xb" + s, n, tile);
    Tensor yt = Var(g, "yt" + s, n, tile), yb = Var(g, "yb" + s, n, tile);
    VertexId v = g.addVertex(cs, codelets::kHadamard2, tile);
    g.connect(v, "x_top", xt);
    g.connect(v, "x_bot", xb);
    g.connect(v, "y_top", yt, true);
    g.connect(v, "y_bot", yb, true);
    bc.outs.push_back(yt);
    bc.outs.push_back(yb);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

struct GemmShape {
  std::size_t m, k, n;
  bool accumulate;
};

// The serving vertices (16-row weight blocks times a k x 32 activation
// chunk, alone or accumulating), then ragged shapes on both sides of the
// GEMM core's choice between reading B in place (rows of at most 64 floats,
// a multiple of 4) and packing it: partial row tiles, 8- and 4-wide column
// tails, n = 1, k = 1, and n just past the in-place bound.
constexpr GemmShape kGemmShapes[] = {
    {16, 256, 32, false}, {16, 96, 32, true}, {5, 9, 13, true},
    {5, 1, 8, false},     {6, 7, 1, true},    {9, 6, 4, false},
    {8, 10, 68, true},    {7, 3, 64, false},  {4, 5, 12, true}};

BuiltCase BuildGemm(Graph& g, Rng& rng, const char* codelet) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  std::vector<GemmShape> shapes;
  for (std::size_t i = 0; i < 4; ++i) {
    shapes.push_back({RandSize(rng, 1, 8), RandSize(rng, 1, 8),
                      RandSize(rng, 1, 8), i % 2 == 1});
  }
  shapes.insert(shapes.end(), std::begin(kGemmShapes), std::end(kGemmShapes));
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto [m, k, n, accumulate] = shapes[i];
    const std::size_t tile = i % 2;
    const std::string s = std::to_string(i);
    Tensor a = Var(g, "a" + s, m * k, tile);
    Tensor b = Var(g, "b" + s, k * n, tile);
    Tensor out = Var(g, "c" + s, m * n, tile);
    VertexId v = g.addVertex(cs, codelet, tile);
    g.connect(v, "a", a);
    g.connect(v, "b", b);
    g.connect(v, "out", out, true);
    g.setInitialValue(v, "m", static_cast<double>(m));
    g.setInitialValue(v, "k", static_cast<double>(k));
    g.setInitialValue(v, "n", static_cast<double>(n));
    if (accumulate) g.setInitialValue(v, "accumulate", 1.0);
    bc.zeroed.push_back(a.var);
    bc.outs.push_back(out);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildSparseRows(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t m = RandSize(rng, 1, 4);
    const std::size_t k = RandSize(rng, 1, 4);
    const std::size_t n = RandSize(rng, 1, 8);
    const std::string s = std::to_string(i);
    Tensor b = Var(g, "b" + s, k * n, tile);
    Tensor out = Var(g, "o" + s, m * n, tile);
    VertexId v = g.addVertex(cs, codelets::kSparseRowsMac, tile);
    g.connect(v, "b", b);
    g.connect(v, "out", out, true);
    g.setInitialValue(v, "m", static_cast<double>(m));
    g.setInitialValue(v, "n", static_cast<double>(n));
    if (i % 2 == 1) g.setInitialValue(v, "accumulate", 1.0);
    // CSR state: [count_r, (col, val) * count_r] per local row.
    std::vector<float> state;
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t count = RandSize(rng, 0, k);
      state.push_back(static_cast<float>(count));
      for (std::size_t e = 0; e < count; ++e) {
        state.push_back(static_cast<float>(RandSize(rng, 0, k - 1)));
        state.push_back(rng.Normal());
      }
    }
    g.setVertexState(v, std::move(state));
    bc.outs.push_back(out);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

BuiltCase BuildSparseCoo(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t m = RandSize(rng, 1, 4);
    const std::size_t k = RandSize(rng, 1, 4);
    const std::size_t n = RandSize(rng, 1, 8);
    const std::string s = std::to_string(i);
    Tensor b = Var(g, "b" + s, k * n, tile);
    Tensor out = Var(g, "o" + s, m * n, tile);
    VertexId v = g.addVertex(cs, codelets::kSparseCooMac, tile);
    g.connect(v, "b", b);
    g.connect(v, "out", out, true);
    g.setInitialValue(v, "n", static_cast<double>(n));
    if (i % 2 == 1) g.setInitialValue(v, "accumulate", 1.0);
    // COO state: (row, col, val) triples.
    std::vector<float> state;
    const std::size_t nnz = RandSize(rng, 0, 6);
    for (std::size_t e = 0; e < nnz; ++e) {
      state.push_back(static_cast<float>(RandSize(rng, 0, m - 1)));
      state.push_back(static_cast<float>(RandSize(rng, 0, k - 1)));
      state.push_back(rng.Normal());
    }
    g.setVertexState(v, std::move(state));
    bc.outs.push_back(out);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

struct BlockShape {
  std::size_t b, batch, nblocks;
  bool accumulate;
};

// Pixelfly's serving vertex (16 x 16 blocks, batch 32), accumulating and
// not, plus ragged blocks read in place and packed.
constexpr BlockShape kBlockShapes[] = {
    {16, 32, 2, false}, {16, 32, 2, true}, {5, 13, 2, true}, {1, 8, 3, false}};

BuiltCase BuildBlockGemmAmp(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs = g.addComputeSet("cs");
  std::vector<BlockShape> shapes;
  for (std::size_t i = 0; i < 4; ++i) {
    shapes.push_back({2 * RandSize(rng, 1, 2), RandSize(rng, 1, 8),
                      RandSize(rng, 1, 3), i % 2 == 1});
  }
  shapes.insert(shapes.end(), std::begin(kBlockShapes), std::end(kBlockShapes));
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto [b, batch, nblocks, accumulate] = shapes[i];
    const std::size_t tile = i % 2;
    const std::string s = std::to_string(i);
    Tensor w = Var(g, "w" + s, nblocks * b * b, tile);
    Tensor x = Var(g, "x" + s, nblocks * b * batch, tile);
    Tensor out = Var(g, "o" + s, b * batch, tile);
    VertexId v = g.addVertex(cs, codelets::kBlockGemmAmp, tile);
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
      g.connect(v, "w", w.slice(blk * b * b, b * b));
      g.connect(v, "x", x.slice(blk * b * batch, b * batch));
    }
    g.connect(v, "out", out, true);
    g.setInitialValue(v, "b", static_cast<double>(b));
    g.setInitialValue(v, "batch", static_cast<double>(batch));
    if (accumulate) g.setInitialValue(v, "accumulate", 1.0);
    bc.zeroed.push_back(w.var);
    bc.outs.push_back(out);
  }
  bc.prog = Program::Execute(cs);
  return bc;
}

// A mixed compute set -- three codelets interleaved over two tiles -- plus a
// second compute set, so per-(cs, tile, codelet) grouping and per-CS group
// ranges are both exercised in one graph.
BuiltCase BuildMixed(Graph& g, Rng& rng) {
  BuiltCase bc;
  ComputeSetId cs1 = g.addComputeSet("cs1");
  ComputeSetId cs2 = g.addComputeSet("cs2");
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t tile = i % 2;
    const std::size_t n = RandSize(rng, 1, 32);
    const std::string s = std::to_string(i);
    Tensor x = Var(g, "x" + s, n, tile);
    Tensor y = Var(g, "y" + s, n, tile);
    Tensor z = Var(g, "z" + s, n, tile);
    VertexId relu = g.addVertex(cs1, codelets::kRelu, tile);
    g.connect(relu, "x", x);
    g.connect(relu, "y", y, true);
    VertexId axpy = g.addVertex(cs2, codelets::kScaledAdd, tile);
    g.connect(axpy, "x", y);
    g.connect(axpy, "y", z, true);
    g.setInitialValue(axpy, "alpha", rng.Normal());
    bc.outs.push_back(y);
    bc.outs.push_back(z);
  }
  bc.prog = Program::Sequence(
      {Program::Execute(cs1), Program::Execute(cs2)});
  return bc;
}

TEST(KernelParity, Relu) { CheckKernel(BuildRelu); }
TEST(KernelParity, ScaledAdd) { CheckKernel(BuildScaledAdd); }
TEST(KernelParity, ReduceAdd) { CheckKernel(BuildReduceAdd); }
TEST(KernelParity, BiasRelu) { CheckKernel(BuildBiasRelu); }
TEST(KernelParity, DiagMul) { CheckKernel(BuildDiagMul); }
TEST(KernelParity, Butterfly2x2) { CheckKernel(BuildButterfly); }
TEST(KernelParity, Hadamard2) { CheckKernel(BuildHadamard); }
TEST(KernelParity, ScalarGemm) {
  CheckKernel([](Graph& g, Rng& rng) {
    return BuildGemm(g, rng, codelets::kScalarGemm);
  });
}
TEST(KernelParity, AmpGemm) {
  CheckKernel([](Graph& g, Rng& rng) {
    return BuildGemm(g, rng, codelets::kAmpGemm);
  });
}
TEST(KernelParity, SparseRowsMac) { CheckKernel(BuildSparseRows); }
TEST(KernelParity, SparseCooMac) { CheckKernel(BuildSparseCoo); }
TEST(KernelParity, BlockGemmAmp) { CheckKernel(BuildBlockGemmAmp); }
TEST(KernelParity, MixedComputeSets) { CheckKernel(BuildMixed); }

// ---------------------------------------------------------------------------
// KernelPlan wire format.

Executable CompileMixed() {
  Session session(Gc200());
  Rng rng(11);
  BuiltCase bc = BuildMixed(session.graph(), rng);
  EXPECT_TRUE(session.compile(bc.prog).ok());
  return session.executable();
}

TEST(KernelPlanSerialization, RoundTripPreservesPlan) {
  const Executable exe = CompileMixed();
  ASSERT_FALSE(exe.kernel_plan.groups.empty());
  const std::vector<std::uint8_t> bytes = exe.Serialize();
  StatusOr<Executable> back = Executable::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  const KernelPlan& a = exe.kernel_plan;
  const KernelPlan& b = back.value().kernel_plan;
  ASSERT_EQ(b.codelets.size(), a.codelets.size());
  for (std::size_t i = 0; i < a.codelets.size(); ++i) {
    EXPECT_EQ(b.codelets[i].name, a.codelets[i].name);
    EXPECT_EQ(b.codelets[i].fields, a.codelets[i].fields);
    EXPECT_EQ(b.codelets[i].imms, a.codelets[i].imms);
  }
  ASSERT_EQ(b.groups.size(), a.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(b.groups[i].cs, a.groups[i].cs);
    EXPECT_EQ(b.groups[i].codelet, a.groups[i].codelet);
    EXPECT_EQ(b.groups[i].tile, a.groups[i].tile);
    EXPECT_EQ(b.groups[i].vertices, a.groups[i].vertices);
    EXPECT_EQ(b.groups[i].edge_start, a.groups[i].edge_start);
    EXPECT_EQ(b.groups[i].imm_values, a.groups[i].imm_values);
    EXPECT_EQ(b.groups[i].imm_present, a.groups[i].imm_present);
  }
  // Cost tables must survive bit-exactly (doubles, not text).
  EXPECT_EQ(b.vertex_cycles, a.vertex_cycles);
  EXPECT_EQ(b.vertex_flops, a.vertex_flops);
  // And the whole artifact re-serializes to identical bytes.
  EXPECT_EQ(back.value().Serialize(), bytes);
}

TEST(KernelPlanSerialization, VersionMismatchRejected) {
  std::vector<std::uint8_t> bytes = CompileMixed().Serialize();
  // Format version: u32 little-endian straight after the 8-byte magic.
  bytes[8] += 1;
  StatusOr<Executable> back = Executable::Deserialize(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("version"), std::string::npos)
      << back.status().message();
}

TEST(KernelPlanSerialization, TruncationRejected) {
  const std::vector<std::uint8_t> bytes = CompileMixed().Serialize();
  // Every prefix must be rejected cleanly -- never a crash or a success.
  for (std::size_t keep : {bytes.size() - 1, bytes.size() - 9,
                           bytes.size() / 2, std::size_t{32}}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(Executable::Deserialize(cut).ok()) << "kept " << keep;
  }
}

TEST(KernelPlanSerialization, ReferentialCorruptionRejected) {
  // Mutate a decoded plan in memory and re-serialize: the checksum is
  // recomputed over the damaged bytes, so only the plan validator stands
  // between the engine and out-of-bounds SoA tables -- or a plan that
  // silently skips vertices.
  const std::vector<std::pair<const char*, std::function<void(Executable&)>>>
      mutations = {
          {"vertex out of range",
           [](Executable& exe) {
             exe.kernel_plan.groups[0].vertices[0] =
                 static_cast<VertexId>(exe.graph->vertices().size());
           }},
          {"edge view out of range",
           [](Executable& exe) {
             exe.kernel_plan.groups[0].edges[0].offset = 1u << 20;
           }},
          {"truncated edge offsets",
           [](Executable& exe) {
             exe.kernel_plan.groups[0].edge_start.pop_back();
           }},
          {"short cycle table",
           [](Executable& exe) { exe.kernel_plan.vertex_cycles.pop_back(); }},
          {"unregistered codelet",
           [](Executable& exe) {
             exe.kernel_plan.codelets[0].name = "NoSuchCodelet";
           }},
          {"groups out of compute-set order",
           [](Executable& exe) {
             auto& groups = exe.kernel_plan.groups;
             std::swap(groups.front(), groups.back());
           }},
          {"executed compute set left uncovered",
           [](Executable& exe) { exe.kernel_plan.groups.pop_back(); }},
      };
  for (const auto& [name, mutate] : mutations) {
    Executable exe = CompileMixed();
    mutate(exe);
    StatusOr<Executable> back = Executable::Deserialize(exe.Serialize());
    EXPECT_FALSE(back.ok()) << name;
    EXPECT_EQ(back.status().code(), ErrorCode::kInvalidArgument) << name;
  }
}

// ---------------------------------------------------------------------------
// Hostile immediates and state in a loaded artifact.

// One vertex on tile 0, each field connected to a fresh variable of the
// given number of elements.
struct OneVertex {
  const char* codelet;
  std::vector<std::pair<const char*, std::size_t>> ins, outs;
  std::vector<std::pair<const char*, double>> imms;
  std::vector<float> state{};
};

Executable Compile(const OneVertex& spec) {
  Session session(Gc200());
  Graph& g = session.graph();
  ComputeSetId cs = g.addComputeSet("cs");
  VertexId v = g.addVertex(cs, spec.codelet, 0);
  for (const auto& [field, numel] : spec.ins) {
    g.connect(v, field, Var(g, field, numel, 0));
  }
  for (const auto& [field, numel] : spec.outs) {
    g.connect(v, field, Var(g, field, numel, 0), true);
  }
  for (const auto& [name, value] : spec.imms) g.setInitialValue(v, name, value);
  if (!spec.state.empty()) g.setVertexState(v, spec.state);
  EXPECT_TRUE(session.compile(Program::Execute(cs)).ok());
  return session.executable();
}

// Round-trips `exe` through its wire format (the checksum is recomputed over
// whatever the caller changed, so Deserialize accepts it) and runs it.
void RoundTripAndRun(const Executable& exe) {
  StatusOr<Executable> back = Executable::Deserialize(exe.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().message();
  Session replay(Gc200());
  ASSERT_TRUE(
      replay.instantiate(std::make_shared<const Executable>(back.take())).ok());
  replay.run();
}

// Runs `exe` with immediate `name` of its single vertex set to `value`.
void RunWithImmediate(Executable exe, const std::string& name, double value) {
  KernelGroup& group = exe.kernel_plan.groups.at(0);
  const auto& imms = exe.kernel_plan.codelets.at(group.codelet).imms;
  const auto slot = std::find(imms.begin(), imms.end(), name) - imms.begin();
  ASSERT_LT(static_cast<std::size_t>(slot), imms.size()) << name;
  group.imm_values.at(static_cast<std::size_t>(slot) * group.vertices.size()) =
      value;
  RoundTripAndRun(exe);
}

// Runs `exe` with the baked state of its single vertex replaced by `state`.
void RunWithState(Executable exe, std::vector<float> state) {
  auto graph = std::make_shared<Graph>(*exe.graph);
  graph->setVertexState(0, std::move(state));
  exe.graph = std::move(graph);
  RoundTripAndRun(exe);
}

// Vertices over two rows of 2048 elements: AmpGemm with m = n = 2 and
// k = 2048, and BlockGemmAmp with one b = 2 block of batch 2048.
const OneVertex kWideGemm{codelets::kAmpGemm,
                          {{"a", 4096}, {"b", 4096}},
                          {{"out", 4}},
                          {{"m", 2.0}, {"k", 2048.0}, {"n", 2.0}}};
const OneVertex kWideBlock{codelets::kBlockGemmAmp,
                           {{"w", 4}, {"x", 4096}},
                           {{"out", 4096}},
                           {{"b", 2.0}, {"batch", 2048.0}}};

// The engine's host thread pool does not survive fork(), so each death
// statement runs in a freshly exec'ed copy of this binary.
class KernelHostileArtifactDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST_F(KernelHostileArtifactDeathTest, WrappingShapeIsRejected) {
  // Every vertex reads two rows of 2048 elements. 2^63 + 2048 times 2 wraps
  // to the real edge size 4096, so a check that multiplies passes and the
  // loop then reads past the edge.
  struct Case {
    OneVertex vertex;
    const char* imm;
    const char* message;
  };
  const Case cases[] = {
      {kWideGemm, "k", "gemm vertex shape mismatch"},
      {kWideBlock, "batch", "BlockGemmAmp out mismatch"},
      {{codelets::kBiasRelu,
        {{"bias", 2}, {"x", 4096}},
        {{"y", 4096}},
        {{"batch", 2048.0}}},
       "batch",
       "BiasRelu shape mismatch"},
      {{codelets::kDiagMul,
        {{"d", 2}, {"x", 4096}},
        {{"y", 4096}},
        {{"batch", 2048.0}}},
       "batch",
       "DiagMul shape mismatch"},
      {{codelets::kButterfly2x2,
        {{"w", 8}, {"x_top", 4096}, {"x_bot", 4096}},
        {{"y_top", 4096}, {"y_bot", 4096}},
        {{"batch", 2048.0}}},
       "batch",
       "Butterfly2x2 shape mismatch"},
  };
  for (const Case& c : cases) {
    const Executable exe = Compile(c.vertex);
    RunWithImmediate(exe, c.imm, 2048.0);  // the untampered artifact runs
    EXPECT_DEATH(RunWithImmediate(exe, c.imm, 0x1p63 + 2048.0), c.message)
        << c.vertex.codelet;
  }
}

TEST_F(KernelHostileArtifactDeathTest, NonSizeImmediateIsRejected) {
  const Executable gemm = Compile(kWideGemm);
  EXPECT_DEATH(RunWithImmediate(gemm, "m", std::nan("")),
               "vertex gemm m = nan is not a size");
  EXPECT_DEATH(RunWithImmediate(gemm, "n", -2.0),
               "vertex gemm n = -2 is not a size");
  EXPECT_DEATH(RunWithImmediate(gemm, "k", 2048.5),
               "vertex gemm k = 2048.5 is not a size");
  EXPECT_DEATH(RunWithImmediate(Compile(kWideBlock), "b", 0x1p64),
               "vertex BlockGemmAmp b = 1.84467e\\+19 is not a size");
}

TEST_F(KernelHostileArtifactDeathTest, HostileSparseStateIsRejected) {
  // A 2 x 2 sparse matrix times a 2 x 2 block. The replacement states are
  // as long as the compiled ones, so only their values are hostile. A
  // column of 2^63 times n = 2 wraps to 0, so a check that multiplies
  // passes and the vertex then reads the wrong row of b.
  const auto sparse = [](const char* codelet, std::vector<float> state) {
    return Compile({codelet,
                    {{"b", 4}},
                    {{"out", 4}},
                    {{"m", 2.0}, {"n", 2.0}},
                    std::move(state)});
  };
  const Executable coo = sparse(codelets::kSparseCooMac, {0.0f, 1.0f, 0.5f});
  RunWithState(coo, {1.0f, 0.0f, 0.5f});
  EXPECT_DEATH(RunWithState(coo, {std::nanf(""), 1.0f, 0.5f}),
               "vertex SparseCooMac row = nan is not a size");
  EXPECT_DEATH(RunWithState(coo, {0.0f, 0x1p63f, 0.5f}),
               "SparseCooMac index out of range");
  // CSR rows of [count, (col, val) * count]: a count past the end of the
  // state must not read beyond it.
  const Executable rows =
      sparse(codelets::kSparseRowsMac, {1.0f, 1.0f, 0.5f, 0.0f});
  RunWithState(rows, {0.0f, 1.0f, 1.0f, 0.5f});
  EXPECT_DEATH(RunWithState(rows, {1.0f, 1.0f, 0.5f, 2.0f}),
               "SparseRowsMac state underrun");
  EXPECT_DEATH(RunWithState(rows, {-1.0f, 1.0f, 0.5f, 0.0f}),
               "vertex SparseRowsMac count = -1 is not a size");
}

}  // namespace
}  // namespace repro::ipu
