// Dense fully-connected layer: the torch.nn.Linear baseline of the paper.
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace repro::nn {

class Linear : public Layer {
 public:
  // Kaiming-uniform init, bias optional (the SHL hidden layer and the
  // classifier both use biases, matching the paper's parameter counts).
  Linear(std::size_t in, std::size_t out, Rng& rng, bool bias = true);

  std::size_t inDim() const override { return in_; }
  std::size_t outDim() const override { return out_; }
  const char* name() const override { return "Linear"; }

  void Forward(const Matrix& x, Matrix& y, bool train) override;
  void Backward(const Matrix& dy, Matrix* dx) override;
  std::vector<ParamRef> parameters() override;

  Matrix& weight() { return w_; }

 private:
  std::size_t in_, out_;
  Matrix w_;       // in x out
  Matrix w_grad_;
  std::vector<float> b_, b_grad_;
  Matrix x_cache_;
};

}  // namespace repro::nn
