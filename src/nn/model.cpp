#include "nn/model.h"

#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/structured.h"

namespace repro::nn {

void Sequential::add(std::unique_ptr<Layer> layer) {
  if (!layers_.empty()) {
    REPRO_REQUIRE(layers_.back()->outDim() == layer->inDim(),
                  "layer dim mismatch: %zu -> %zu", layers_.back()->outDim(),
                  layer->inDim());
  }
  layers_.push_back(std::move(layer));
}

const Matrix& Sequential::Forward(const Matrix& x, bool train) {
  REPRO_REQUIRE(!layers_.empty(), "empty model");
  acts_.resize(layers_.size());
  const Matrix* cur = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->Forward(*cur, acts_[i], train);
    cur = &acts_[i];
  }
  return acts_.back();
}

void Sequential::Backward(const Matrix& dout) {
  grad_a_ = dout;
  // Nothing reads the model input's gradient: layer 0 computes parameter
  // gradients only.
  for (std::size_t i = layers_.size(); i-- > 0;) {
    layers_[i]->Backward(grad_a_, i == 0 ? nullptr : &grad_b_);
    std::swap(grad_a_, grad_b_);
  }
}

std::vector<ParamRef> Sequential::parameters() {
  std::vector<ParamRef> all;
  for (auto& l : layers_) {
    for (auto& p : l->parameters()) all.push_back(p);
  }
  return all;
}

std::size_t Sequential::paramCount() {
  std::size_t n = 0;
  for (const auto& p : parameters()) n += p.value.size();
  return n;
}

Sequential BuildShl(core::Method method, const core::ShlShape& shape, Rng& rng,
                    core::ButterflyParam butterfly_param) {
  using core::Method;
  Sequential model;
  const std::size_t n = shape.hidden;
  REPRO_REQUIRE(shape.input == n || method == Method::kBaseline ||
                    method == Method::kLowRank,
                "structured square layers need input == hidden");
  switch (method) {
    case Method::kBaseline:
      model.add(std::make_unique<Linear>(shape.input, n, rng));
      break;
    case Method::kButterfly:
      model.add(std::make_unique<ButterflyLayer>(n, butterfly_param, rng));
      break;
    case Method::kFastfood:
      model.add(std::make_unique<FastfoodLayer>(n, rng));
      break;
    case Method::kCirculant:
      model.add(std::make_unique<CirculantLayer>(n, rng));
      break;
    case Method::kLowRank:
      model.add(std::make_unique<LowRankLayer>(shape.input, n,
                                               shape.low_rank_rank, rng));
      break;
    case Method::kPixelfly:
      model.add(std::make_unique<PixelflyLayer>(shape.pixelfly, rng));
      break;
  }
  model.add(std::make_unique<Relu>(n));
  model.add(std::make_unique<Linear>(n, shape.classes, rng));
  return model;
}

}  // namespace repro::nn
