#pragma once

// Layer abstraction. Modules are stateful: forward() caches whatever backward()
// needs, and backward() consumes the most recent forward's cache. This mirrors
// the define-by-run training loop the paper uses (PyTorch) without a general
// autograd tape — the per-subdomain model is a plain feed-forward chain.

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace parpde::nn {

// Non-owning handle to one learnable parameter and its gradient accumulator.
struct ParamRef {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;
};

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // Computes the layer output; caches activations needed by backward().
  virtual Tensor forward(const Tensor& x) = 0;

  // Propagates the loss gradient; accumulates into parameter grads and
  // returns the gradient with respect to the layer input.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  // Parameters-only backward: accumulates the same parameter gradients as
  // backward(), bit for bit, for a caller that discards the input gradient
  // (a trainer's first layer). Layers that can skip the input gradient
  // override it; the default runs the full backward.
  virtual void backward_params(const Tensor& grad_out) { (void)backward(grad_out); }

  // Learnable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> parameters() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;

  // Zeroes all parameter gradients.
  void zero_grad() {
    for (auto& p : parameters()) p.grad->fill(0.0f);
  }

  // Total learnable scalar count.
  [[nodiscard]] std::int64_t parameter_count() {
    std::int64_t n = 0;
    for (const auto& p : parameters()) n += p.value->size();
    return n;
  }
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace parpde::nn
