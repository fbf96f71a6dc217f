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

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    telemetry::Span span(
        telemetry::enabled() ? (*it)->name() + " bwd" : std::string(), "nn");
    g = (*it)->backward(g);
  }
  return g;
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
