#include "nn/sequential.hpp"

#include <stdexcept>

#include "util/telemetry.hpp"

namespace parpde::nn {

Module& Sequential::add(ModulePtr module) {
  if (!module) throw std::invalid_argument("Sequential::add: null module");
  layers_.push_back(std::move(module));
  return *layers_.back();
}

Tensor Sequential::forward(const Tensor& x) {
  Tensor h = x;
  for (auto& layer : layers_) {
    // Layer names are only materialized while tracing.
    telemetry::Span span(
        telemetry::enabled() ? layer->name() + " fwd" : std::string(), "nn");
    h = layer->forward(h);
  }
  return h;
}

Tensor Sequential::backward_to_first(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    telemetry::Span span(
        telemetry::enabled() ? layers_[i]->name() + " bwd" : std::string(),
        "nn");
    g = layers_[i]->backward(g);
  }
  return g;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  if (layers_.empty()) return grad_out;
  const Tensor g = backward_to_first(grad_out);
  telemetry::Span span(
      telemetry::enabled() ? layers_[0]->name() + " bwd" : std::string(), "nn");
  return layers_[0]->backward(g);
}

void Sequential::backward_params(const Tensor& grad_out) {
  if (layers_.empty()) return;
  const Tensor g = backward_to_first(grad_out);
  telemetry::Span span(
      telemetry::enabled() ? layers_[0]->name() + " bwd" : std::string(), "nn");
  layers_[0]->backward_params(g);
}

std::vector<ParamRef> Sequential::parameters() {
  std::vector<ParamRef> params;
  for (auto& layer : layers_) {
    for (auto& p : layer->parameters()) params.push_back(p);
  }
  return params;
}

std::string Sequential::name() const {
  std::string s = "sequential[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) s += ", ";
    s += layers_[i]->name();
  }
  s += ']';
  return s;
}

}  // namespace parpde::nn
