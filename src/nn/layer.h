// Layer interface for the minimal training framework (the PyTorch/PopTorch
// substitute). Layers implement explicit forward/backward; parameters are
// exposed as (value, grad) span pairs consumed by the optimizer.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace repro::nn {

struct ParamRef {
  std::span<float> value;
  std::span<float> grad;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::size_t inDim() const = 0;
  virtual std::size_t outDim() const = 0;
  virtual const char* name() const = 0;

  // y = f(x). When `train` is true the layer caches whatever Backward needs.
  virtual void Forward(const Matrix& x, Matrix& y, bool train) = 0;
  // Accumulates parameter gradients from the cached state and, when dx is
  // non-null, sets *dx = df/dx^T dy. A null dx means "parameter gradients
  // only": the first layer of a model has no reader for its input gradient.
  virtual void Backward(const Matrix& dy, Matrix* dx) = 0;

  virtual std::vector<ParamRef> parameters() { return {}; }

  std::size_t paramCount() {
    std::size_t n = 0;
    for (const auto& p : parameters()) n += p.value.size();
    return n;
  }
  void zeroGrad() {
    for (auto& p : parameters()) {
      std::fill(p.grad.begin(), p.grad.end(), 0.0f);
    }
  }
};

}  // namespace repro::nn
