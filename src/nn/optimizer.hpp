#pragma once

// First-order optimizers. ADAM implements exactly Eqs. (3)-(6) of the paper
// (first/second moments with bias correction); SGD with optional momentum is
// the ablation baseline. State (moments) is kept per parameter tensor and
// keyed by position in the parameter list, which is stable for a fixed model.

#include <memory>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace parpde::nn {

// Snapshot of an optimizer's mutable state, sufficient to continue training
// bit-identically after a restart (core/train_checkpoint.hpp persists it).
// `slots` holds the per-parameter moment tensors in a fixed order: ADAM
// stores first moments then second moments (2P tensors), SGD+momentum its
// velocities (P), plain SGD none.
struct OptimizerState {
  std::string name;             // must match the live optimizer's name()
  std::int64_t step_count = 0;  // ADAM t (drives the bias corrections)
  double learning_rate = 0.0;
  std::vector<Tensor> slots;
};

class Optimizer {
 public:
  Optimizer(std::vector<ParamRef> params, double lr)
      : params_(std::move(params)), lr_(lr) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  // Applies one update using the currently accumulated gradients.
  virtual void step() = 0;

  void zero_grad() {
    for (auto& p : params_) p.grad->fill(0.0f);
  }

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] const std::vector<ParamRef>& params() const { return params_; }

  // Checkpoint/restore of the mutable state (moments, step count, learning
  // rate). import_state validates the optimizer kind and slot shapes
  // and throws on mismatch; after it, training continues exactly as if never
  // interrupted.
  [[nodiscard]] virtual OptimizerState export_state() const;
  virtual void import_state(const OptimizerState& state);

 protected:
  // Shared import preamble: checks the name tag and restores the learning
  // rate; derived classes restore their slots.
  void import_common(const OptimizerState& state);
  std::vector<ParamRef> params_;
  double lr_;
};

using OptimizerPtr = std::unique_ptr<Optimizer>;

class SGD final : public Optimizer {
 public:
  SGD(std::vector<ParamRef> params, double lr, double momentum = 0.0);
  void step() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] OptimizerState export_state() const override;
  void import_state(const OptimizerState& state) override;

 private:
  double momentum_;
  std::vector<Tensor> velocity_;  // one per parameter, lazily shaped
};

class Adam final : public Optimizer {
 public:
  Adam(std::vector<ParamRef> params, double lr = 1e-3, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);
  void step() override;
  [[nodiscard]] std::string name() const override { return "adam"; }
  [[nodiscard]] OptimizerState export_state() const override;
  void import_state(const OptimizerState& state) override;

  [[nodiscard]] std::int64_t step_count() const { return t_; }

 private:
  double beta1_;
  double beta2_;
  double eps_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_;  // first moments
  std::vector<Tensor> v_;  // second moments
};

// Factory: "adam" | "sgd" | "momentum" (SGD with 0.9 momentum).
OptimizerPtr make_optimizer(const std::string& name, std::vector<ParamRef> params,
                            double lr);

}  // namespace parpde::nn
