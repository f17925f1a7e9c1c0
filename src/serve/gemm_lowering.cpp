#include "serve/gemm_lowering.h"

#include <algorithm>

#include "ipusim/codelet.h"
#include "util/bitops.h"
#include "util/error.h"

namespace repro::serve {
namespace {

// Largest kc <= 256 dividing k (so every edge is an exact row range).
std::size_t PickKChunk(std::size_t k) {
  constexpr std::size_t kMax = 256;
  if (k <= kMax) return k;
  for (std::size_t kc = kMax; kc >= 64; --kc) {
    if (k % kc == 0) return kc;
  }
  return k;  // awkward prime-ish k: single chunk
}

}  // namespace

KSplitGemm AddKSplitGemm(ipu::Graph& g, ipu::Program& seq,
                         const std::string& name, const ipu::Tensor& x,
                         const ipu::Tensor& out, std::size_t m, std::size_t k,
                         bool accumulate, std::size_t batch) {
  using ipu::Program;
  using ipu::Tensor;
  const std::size_t B = batch;
  KSplitGemm gw;
  gw.m = m;
  gw.k = k;
  gw.mb = 16;
  gw.kc = PickKChunk(k);
  gw.gm = CeilDiv(m, gw.mb);
  gw.gk = k / gw.kc;
  REPRO_REQUIRE(gw.gk * gw.kc == k, "k-chunk %zu does not divide k=%zu",
                gw.kc, k);
  REPRO_REQUIRE(x.rows >= k && x.cols == B, "gemm '%s' input shape",
                name.c_str());
  REPRO_REQUIRE(out.rows == gw.gm * gw.mb && out.cols == B,
                "gemm '%s' output shape (want %zu padded rows)", name.c_str(),
                gw.gm * gw.mb);
  REPRO_REQUIRE(!accumulate || gw.gk == 1,
                "accumulating gemm must be single-chunk");

  gw.w = g.addVariable(name + "_w", gw.gm * gw.gk, gw.mb * gw.kc);
  g.mapLinearly(gw.w, gw.mb * gw.kc);
  Tensor partials;
  if (gw.gk > 1) {
    partials = g.addVariable(name + "_part", gw.gm * gw.gk, gw.mb * B);
  }
  ipu::ComputeSetId cs = g.addComputeSet(name + "_mm");
  for (std::size_t im = 0; im < gw.gm; ++im) {
    for (std::size_t ik = 0; ik < gw.gk; ++ik) {
      const std::size_t blk = im * gw.gk + ik;
      // The weight block never moves: the vertex runs where it lives, so
      // only the activation chunk crosses the exchange each batch.
      const std::size_t tile = g.tileOfElement(gw.w, blk * gw.mb * gw.kc);
      ipu::VertexId v = g.addVertex(cs, ipu::codelets::kAmpGemm, tile);
      g.connect(v, "a", gw.w.row(blk));
      g.connect(v, "b", x.rowRange(ik * gw.kc, gw.kc));
      if (gw.gk > 1) {
        g.setTileMapping(partials.row(blk), tile);
        g.connect(v, "out", partials.row(blk), true);
      } else {
        g.connect(v, "out", out.rowRange(im * gw.mb, gw.mb), true);
      }
      g.setInitialValue(v, "m", static_cast<double>(gw.mb));
      g.setInitialValue(v, "k", static_cast<double>(gw.kc));
      g.setInitialValue(v, "n", static_cast<double>(B));
      if (accumulate) g.setInitialValue(v, "accumulate", 1.0);
    }
  }
  seq.add(Program::Execute(cs));
  if (gw.gk > 1) {
    ipu::ComputeSetId red = g.addComputeSet(name + "_red");
    for (std::size_t im = 0; im < gw.gm; ++im) {
      const std::size_t tile = g.tileOfElement(out, im * gw.mb * B);
      ipu::VertexId v = g.addVertex(red, ipu::codelets::kReduceAdd, tile);
      for (std::size_t ik = 0; ik < gw.gk; ++ik) {
        g.connect(v, "partials", partials.row(im * gw.gk + ik));
      }
      g.connect(v, "out", out.rowRange(im * gw.mb, gw.mb), true);
    }
    seq.add(Program::Execute(red));
  }
  return gw;
}

std::vector<float> PackGemmBlocks(const KSplitGemm& gw, const float* w) {
  std::vector<float> packed(gw.gm * gw.gk * gw.mb * gw.kc, 0.0f);
  for (std::size_t im = 0; im < gw.gm; ++im) {
    for (std::size_t ik = 0; ik < gw.gk; ++ik) {
      float* blk = packed.data() + (im * gw.gk + ik) * gw.mb * gw.kc;
      for (std::size_t i = 0; i < gw.mb; ++i) {
        const std::size_t gi = im * gw.mb + i;
        if (gi >= gw.m) break;  // zero padding stays
        const float* src = w + gi * gw.k + ik * gw.kc;
        std::copy(src, src + gw.kc, blk + i * gw.kc);
      }
    }
  }
  return packed;
}

ipu::Tensor AddBiasRelu(ipu::Graph& g, ipu::Program& seq,
                        const std::string& prefix, const ipu::Tensor& h) {
  const std::size_t rows = h.rows;
  const std::size_t B = h.cols;
  ipu::Tensor bias = g.addVariable(prefix + "_hb", rows);
  g.mapLinearly(bias, 1);
  ipu::ComputeSetId cs = g.addComputeSet(prefix + "_bias_relu");
  const std::size_t rows_per_tile =
      std::max<std::size_t>(1, CeilDiv(rows, g.arch().num_tiles));
  for (std::size_t r = 0; r < rows; r += rows_per_tile) {
    const std::size_t count = std::min(rows_per_tile, rows - r);
    const std::size_t tile = g.tileOfElement(h, r * B);
    ipu::VertexId v = g.addVertex(cs, ipu::codelets::kBiasRelu, tile);
    g.connect(v, "bias", bias.slice(r, count));
    g.connect(v, "x", h.rowRange(r, count));
    g.connect(v, "y", h.rowRange(r, count), true);
    g.setInitialValue(v, "batch", static_cast<double>(B));
    g.setInitialValue(v, "relu", 1.0);
  }
  seq.add(ipu::Program::Execute(cs));
  return bias;
}

ClassifierHead AddClassifierHead(ipu::Graph& g, ipu::Program& seq,
                                 const std::string& prefix,
                                 const ipu::Tensor& h, std::size_t classes) {
  const std::size_t B = h.cols;
  const std::size_t cp = Pad16(classes);
  ClassifierHead head;
  head.logits = g.addVariable(prefix + "_logits", cp, B);
  g.mapLinearly(head.logits, B);
  head.w = AddKSplitGemm(g, seq, prefix + "_cls", h, head.logits, classes,
                         h.rows, /*accumulate=*/false, B);
  head.bias = g.addVariable(prefix + "_cb", cp);
  g.mapLinearly(head.bias, 1);
  ipu::ComputeSetId cs = g.addComputeSet(prefix + "_cls_bias");
  ipu::VertexId v = g.addVertex(cs, ipu::codelets::kBiasRelu,
                                g.tileOfElement(head.logits, 0));
  g.connect(v, "bias", head.bias);
  g.connect(v, "x", head.logits);
  g.connect(v, "y", head.logits, true);
  g.setInitialValue(v, "batch", static_cast<double>(B));
  g.setInitialValue(v, "relu", 0.0);
  seq.add(ipu::Program::Execute(cs));
  return head;
}

std::vector<float> FeatureMajorBatch(const nn::ForwardSpec& spec,
                                     const Matrix& inputs, std::size_t batch) {
  const std::size_t rows = inputs.rows();
  REPRO_REQUIRE(rows >= 1 && rows <= batch && inputs.cols() == spec.input,
                "batch shape %zux%zu vs plan (<=%zu x %zu)", rows,
                inputs.cols(), batch, spec.input);
  const bool permute = spec.method == core::Method::kButterfly &&
                       spec.butterfly_perm.size() == spec.input;
  std::vector<float> x(spec.input * batch, 0.0f);
  for (std::size_t i = 0; i < spec.input; ++i) {
    const std::size_t src = permute ? spec.butterfly_perm[i] : i;
    for (std::size_t j = 0; j < rows; ++j) {
      x[i * batch + j] = inputs(j, src);
    }
  }
  return x;
}

Matrix RowMajorLogits(std::span<const float> logits, std::size_t classes,
                      std::size_t batch, std::size_t rows) {
  REPRO_REQUIRE(logits.size() == classes * batch && rows <= batch,
                "logits %zu for %zu classes x %zu batch (%zu rows)",
                logits.size(), classes, batch, rows);
  Matrix out(rows, classes);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t j = 0; j < rows; ++j) {
      out(j, c) = logits[c * batch + j];
    }
  }
  return out;
}

}  // namespace repro::serve
