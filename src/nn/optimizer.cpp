#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace parpde::nn {

namespace {

// Moment slots are lazily shaped (first step() allocates them); a snapshot
// taken before that materializes them as the zeros they conceptually are, so
// shape validation on import stays uniform.
Tensor materialized_slot(const Tensor& slot, const Tensor& param) {
  if (slot.size() == param.size()) return slot;
  return Tensor(param.shape());
}

void check_slot_count(const OptimizerState& state, std::size_t expected,
                      const char* who) {
  if (state.slots.size() != expected) {
    throw std::runtime_error(std::string(who) +
                             "::import_state: slot count mismatch (got " +
                             std::to_string(state.slots.size()) + ", expected " +
                             std::to_string(expected) + ")");
  }
}

void check_slot_shape(const Tensor& slot, const Tensor& param,
                      const char* who) {
  if (!slot.same_shape(param)) {
    throw std::runtime_error(std::string(who) +
                             "::import_state: slot shape mismatch");
  }
}

}  // namespace

OptimizerState Optimizer::export_state() const {
  OptimizerState state;
  state.name = name();
  state.learning_rate = lr_;
  return state;
}

void Optimizer::import_common(const OptimizerState& state) {
  if (state.name != name()) {
    throw std::runtime_error("Optimizer::import_state: checkpoint holds '" +
                             state.name + "' state, live optimizer is '" +
                             name() + "'");
  }
  if (!(state.learning_rate > 0.0)) {
    throw std::runtime_error("Optimizer::import_state: learning rate <= 0");
  }
  lr_ = state.learning_rate;
}

void Optimizer::import_state(const OptimizerState& state) {
  import_common(state);
  check_slot_count(state, 0, "Optimizer");
}

SGD::SGD(std::vector<ParamRef> params, double lr, double momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {
  if (lr <= 0.0) throw std::invalid_argument("SGD: lr must be positive");
  if (momentum < 0.0 || momentum >= 1.0) {
    throw std::invalid_argument("SGD: momentum must be in [0, 1)");
  }
  velocity_.resize(params_.size());
}

void SGD::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& w = *params_[i].value;
    const Tensor& g = *params_[i].grad;
    if (momentum_ == 0.0) {
      for (std::int64_t j = 0; j < w.size(); ++j) {
        w[j] -= static_cast<float>(lr_) * g[j];
      }
      continue;
    }
    Tensor& vel = velocity_[i];
    if (vel.size() != w.size()) vel = Tensor(w.shape());
    const auto mom = static_cast<float>(momentum_);
    const auto lr = static_cast<float>(lr_);
    for (std::int64_t j = 0; j < w.size(); ++j) {
      vel[j] = mom * vel[j] + g[j];
      w[j] -= lr * vel[j];
    }
  }
}

std::string SGD::name() const {
  return momentum_ == 0.0 ? "sgd" : "sgd+momentum";
}

OptimizerState SGD::export_state() const {
  OptimizerState state = Optimizer::export_state();
  if (momentum_ == 0.0) return state;  // stateless update rule
  state.slots.reserve(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    state.slots.push_back(materialized_slot(velocity_[i], *params_[i].value));
  }
  return state;
}

void SGD::import_state(const OptimizerState& state) {
  import_common(state);
  check_slot_count(state, momentum_ == 0.0 ? 0 : params_.size(), "SGD");
  for (std::size_t i = 0; i < state.slots.size(); ++i) {
    check_slot_shape(state.slots[i], *params_[i].value, "SGD");
    velocity_[i] = state.slots[i];
  }
}

Adam::Adam(std::vector<ParamRef> params, double lr, double beta1, double beta2,
           double eps)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  if (lr <= 0.0) throw std::invalid_argument("Adam: lr must be positive");
  if (beta1 < 0.0 || beta1 >= 1.0 || beta2 < 0.0 || beta2 >= 1.0) {
    throw std::invalid_argument("Adam: betas must be in [0, 1)");
  }
  m_.resize(params_.size());
  v_.resize(params_.size());
}

void Adam::step() {
  ++t_;
  // Bias corrections 1/(1 - rho^t) of Eq. (5).
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& w = *params_[i].value;
    const Tensor& g = *params_[i].grad;
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    if (m.size() != w.size()) m = Tensor(w.shape());
    if (v.size() != w.size()) v = Tensor(w.shape());
    for (std::int64_t j = 0; j < w.size(); ++j) {
      const double gj = g[j];
      const double mj = beta1_ * m[j] + (1.0 - beta1_) * gj;        // Eq. (3)
      const double vj = beta2_ * v[j] + (1.0 - beta2_) * gj * gj;   // Eq. (4)
      m[j] = static_cast<float>(mj);
      v[j] = static_cast<float>(vj);
      const double mhat = mj / bc1;                                 // Eq. (5)
      const double vhat = vj / bc2;
      w[j] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));  // Eq. (6)
    }
  }
}

OptimizerState Adam::export_state() const {
  OptimizerState state = Optimizer::export_state();
  state.step_count = t_;
  state.slots.reserve(2 * params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    state.slots.push_back(materialized_slot(m_[i], *params_[i].value));
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    state.slots.push_back(materialized_slot(v_[i], *params_[i].value));
  }
  return state;
}

void Adam::import_state(const OptimizerState& state) {
  import_common(state);
  check_slot_count(state, 2 * params_.size(), "Adam");
  if (state.step_count < 0) {
    throw std::runtime_error("Adam::import_state: negative step count");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    check_slot_shape(state.slots[i], *params_[i].value, "Adam");
    check_slot_shape(state.slots[params_.size() + i], *params_[i].value, "Adam");
  }
  t_ = state.step_count;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i] = state.slots[i];
    v_[i] = state.slots[params_.size() + i];
  }
}

OptimizerPtr make_optimizer(const std::string& name, std::vector<ParamRef> params,
                            double lr) {
  if (name == "adam") return std::make_unique<Adam>(std::move(params), lr);
  if (name == "sgd") return std::make_unique<SGD>(std::move(params), lr);
  if (name == "momentum") {
    return std::make_unique<SGD>(std::move(params), lr, 0.9);
  }
  throw std::invalid_argument("make_optimizer: unknown optimizer '" + name + "'");
}

}  // namespace parpde::nn
