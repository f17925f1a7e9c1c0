// Sequential model container and the paper's single-hidden-layer (SHL)
// architecture: input -> structured hidden layer (1024 -> 1024) -> ReLU ->
// Linear classifier (1024 -> 10). The hidden layer is swapped per method.
#pragma once

#include <memory>

#include "core/butterfly.h"
#include "core/device_time.h"
#include "core/method.h"
#include "nn/layer.h"

namespace repro::nn {

class Sequential {
 public:
  Sequential() = default;

  void add(std::unique_ptr<Layer> layer);
  std::size_t numLayers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  // Forward through all layers; returns the final activation.
  const Matrix& Forward(const Matrix& x, bool train);
  // Backpropagates dLoss/dOutput through all layers into the parameter
  // gradients (the model input's gradient is not computed).
  void Backward(const Matrix& dout);

  std::vector<ParamRef> parameters();
  std::size_t paramCount();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Matrix> acts_;  // acts_[i] = output of layer i
  Matrix grad_a_, grad_b_;    // ping-pong gradient buffers
};

// Builds the SHL model for a method. `shape` carries the dimensions and the
// pixelfly configuration; `butterfly_param` selects the butterfly
// parameterization (Givens matches the paper's Table 4 parameter count).
Sequential BuildShl(core::Method method, const core::ShlShape& shape, Rng& rng,
                    core::ButterflyParam butterfly_param =
                        core::ButterflyParam::kGivens);

}  // namespace repro::nn
