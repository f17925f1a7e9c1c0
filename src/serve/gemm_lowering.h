// The serving lowerings shared by the single-chip ModelPlan and the cluster
// ShardPlan (cluster/shard_plan.h): the k-split GEMM, the bias + ReLU
// epilogue, the classifier head, and the host-side input and logits
// layouts. The hidden layers' own lowerings are shared with the paper
// timings (core/ipu_lowering.h). Like those, each lowering appends to the
// caller's graph and program and names what it adds from a caller's prefix.
//
// The k-split GEMM lowers a feature-major out = W * x (W is m x k, packed
// block-major in mb x kc blocks) as AmpGemm partial products plus a
// ReduceAdd stage. The weight blocks never move: each vertex runs on the
// tile its block lives on, so only the activation chunk crosses the
// exchange every batch. The k-chunk bound keeps any single vertex from
// dragging a whole activation column onto its tile -- the difference
// between a dense replica fitting on ~40 tiles and not fitting at all.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "ipusim/graph.h"
#include "ipusim/program.h"
#include "linalg/matrix.h"
#include "nn/export.h"

namespace repro::serve {

// Weight-upload handle of one lowered GEMM: the packed block-major weight
// tensor plus its packing geometry (m x k split into gm x gk blocks of
// mb x kc).
struct KSplitGemm {
  ipu::Tensor w;
  std::size_t m = 0, k = 0, mb = 0, kc = 0, gm = 0, gk = 0;
};

// Appends the GEMM's compute sets to `seq` and returns the weight handle.
// Requires x.rows >= k, x.cols == batch, out.rows == ceil(m/16)*16,
// out.cols == batch; `accumulate` (out += W x) needs a single k-chunk.
KSplitGemm AddKSplitGemm(ipu::Graph& g, ipu::Program& seq,
                         const std::string& name, const ipu::Tensor& x,
                         const ipu::Tensor& out, std::size_t m, std::size_t k,
                         bool accumulate, std::size_t batch);

// Packs a row-major m x k weight matrix into the block-major device layout
// of `gw` (zero-padded to the block grid).
std::vector<float> PackGemmBlocks(const KSplitGemm& gw, const float* w);

// Fused bias + ReLU epilogue h = relu(h + bias) over the feature-major h
// (h.rows features of h.cols batch columns), one BiasRelu vertex per row
// chunk on the tile holding the chunk. Adds the bias `prefix` + "_hb"
// (h.rows floats) and the compute set `prefix` + "_bias_relu"; returns the
// bias.
ipu::Tensor AddBiasRelu(ipu::Graph& g, ipu::Program& seq,
                        const std::string& prefix, const ipu::Tensor& h);

// Classifier head logits = Wc h + bc (no activation) over the feature-major
// h (h.rows features of h.cols batch columns): a k-split GEMM `prefix` +
// "_cls" into `prefix` + "_logits", Pad16(classes) rows, then one BiasRelu
// vertex (ReLU off) in `prefix` + "_cls_bias" adding the bias `prefix` +
// "_cb" (Pad16(classes) floats).
struct ClassifierHead {
  KSplitGemm w;
  ipu::Tensor bias;
  ipu::Tensor logits;  // Pad16(classes) x batch; rows >= classes are padding
};
ClassifierHead AddClassifierHead(ipu::Graph& g, ipu::Program& seq,
                                 const std::string& prefix,
                                 const ipu::Tensor& h, std::size_t classes);

// One micro-batch (1..batch rows of spec.input row-major features) in the
// device's feature-major layout, spec.input x batch: transposed, with the
// butterfly input permutation applied when `spec` carries one, and the
// unused batch columns zero.
std::vector<float> FeatureMajorBatch(const nn::ForwardSpec& spec,
                                     const Matrix& inputs, std::size_t batch);

// Its output twin: the first `rows` batch columns of feature-major logits
// (classes x batch) as a row-major rows x classes matrix.
Matrix RowMajorLogits(std::span<const float> logits, std::size_t classes,
                      std::size_t batch, std::size_t rows);

}  // namespace repro::serve
