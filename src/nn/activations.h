// Pointwise activation layers.
#pragma once

#include "nn/layer.h"

namespace repro::nn {

class Relu : public Layer {
 public:
  explicit Relu(std::size_t dim) : dim_(dim) {}

  std::size_t inDim() const override { return dim_; }
  std::size_t outDim() const override { return dim_; }
  const char* name() const override { return "Relu"; }

  void Forward(const Matrix& x, Matrix& y, bool train) override;
  void Backward(const Matrix& dy, Matrix* dx) override;

 private:
  std::size_t dim_;
  Matrix mask_;  // 1 where x > 0
};

}  // namespace repro::nn
