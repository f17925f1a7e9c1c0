#include "nn/export.h"

#include <algorithm>

#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/structured.h"

namespace repro::nn {
namespace {

// The bias is the last parameter span of every layer type (see
// structured.cpp / linear.cpp parameters()).
std::vector<float> BiasOf(Layer& layer) {
  auto params = layer.parameters();
  REPRO_REQUIRE(!params.empty(), "layer '%s' has no parameters", layer.name());
  auto b = params.back().value;
  REPRO_REQUIRE(b.size() == layer.outDim(),
                "layer '%s' last parameter is not the bias", layer.name());
  return {b.begin(), b.end()};
}

// Host weights are (in x out) acting as y = x W; the device graph computes
// feature-major y' = W^T x', so upload the transpose.
Matrix TransposeOf(const Matrix& w) { return w.Transposed(); }

}  // namespace

std::size_t ForwardSpec::paramCount() const {
  std::size_t n = hidden_bias.size() + classifier_wt.size() +
                  classifier_bias.size() + dense_wt.size() + pf_blocks.size() +
                  pf_vt.size() + pf_u.size();
  for (const auto& f : butterfly_factors) n += f.size();
  return n;
}

ForwardSpec ExportForward(Sequential& model) {
  REPRO_REQUIRE(model.numLayers() == 3,
                "serving export expects the SHL stack [hidden, ReLU, Linear]; "
                "got %zu layers",
                model.numLayers());
  Layer& hidden = model.layer(0);
  REPRO_REQUIRE(dynamic_cast<Relu*>(&model.layer(1)) != nullptr,
                "serving export expects ReLU after the hidden layer");
  auto* classifier = dynamic_cast<Linear*>(&model.layer(2));
  REPRO_REQUIRE(classifier != nullptr,
                "serving export expects a Linear classifier head");

  ForwardSpec spec;
  spec.input = hidden.inDim();
  spec.hidden = hidden.outDim();
  spec.classes = classifier->outDim();
  spec.hidden_bias = BiasOf(hidden);
  spec.classifier_wt = TransposeOf(classifier->weight());
  spec.classifier_bias = BiasOf(*classifier);

  if (auto* lin = dynamic_cast<Linear*>(&hidden)) {
    spec.method = core::Method::kBaseline;
    spec.dense_wt = TransposeOf(lin->weight());
    return spec;
  }
  if (auto* bfly = dynamic_cast<ButterflyLayer*>(&hidden)) {
    spec.method = core::Method::kButterfly;
    const core::Butterfly& bf = bfly->butterfly();
    const core::Permutation& perm = bf.permutation();
    for (std::size_t i = 0; i < perm.size(); ++i) {
      spec.butterfly_perm.push_back(perm[i]);
    }
    spec.butterfly_factors.reserve(bf.numFactors());
    for (std::size_t f = 0; f < bf.numFactors(); ++f) {
      spec.butterfly_factors.push_back(bf.FactorCoeffs(f));
    }
    return spec;
  }
  if (auto* pf = dynamic_cast<PixelflyLayer*>(&hidden)) {
    spec.method = core::Method::kPixelfly;
    core::Pixelfly& p = pf->pixelfly();
    spec.pixelfly = p.config();
    spec.pf_pattern = p.pattern();
    auto blocks = p.blockParams();
    spec.pf_blocks.assign(blocks.begin(), blocks.end());
    if (spec.pixelfly.low_rank > 0) {
      // Host stores U and V as (n x r); the device wants V^T (r x n) for the
      // bottleneck matmul and U (n x r) block-rows for the expansion.
      spec.pf_vt = p.v().Transposed();
      spec.pf_u = p.u();
    }
    return spec;
  }
  REPRO_REQUIRE(false,
                "serving export supports Linear/ButterflyLayer/PixelflyLayer "
                "hidden layers; got '%s'",
                hidden.name());
  return spec;  // unreachable
}

}  // namespace repro::nn
