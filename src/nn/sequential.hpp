#pragma once

// Feed-forward container chaining modules. The paper's per-subdomain model is
// a Sequential of [Conv2d, LeakyReLU] x 4 (Table I).

#include <memory>
#include <vector>

#include "nn/module.hpp"

namespace parpde::nn {

class Sequential final : public Module {
 public:
  Sequential() = default;

  // Appends a layer; returns a reference to the stored module for chaining.
  Module& add(ModulePtr module);

  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto m = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *m;
    add(std::move(m));
    return ref;
  }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  // backward() through layers N-1..1, then backward_params on layer 0: the
  // same parameter gradients without the network's input gradient.
  void backward_params(const Tensor& grad_out) override;
  std::vector<ParamRef> parameters() override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  Module& layer(std::size_t i) { return *layers_.at(i); }

 private:
  // backward() through layers N-1..1; returns the gradient at layer 0's
  // output. Requires at least one layer.
  Tensor backward_to_first(const Tensor& grad_out);

  std::vector<ModulePtr> layers_;
};

}  // namespace parpde::nn
