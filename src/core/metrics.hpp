#pragma once

// Prediction-quality metrics for the Fig. 3 reproduction: per-channel and
// overall MAPE (stabilized), RMSE, maximum absolute error, and relative L2
// error (per rollout step, the error-growth curve discussed in Sec. IV-B).

#include <string>
#include <vector>

#include "euler/state.hpp"
#include "tensor/tensor.hpp"

namespace parpde::core {

struct ErrorMetrics {
  double mape = 0.0;     // percent, denominator floored at eps
  double rmse = 0.0;
  double max_err = 0.0;
  double rel_l2 = 0.0;   // ||pred - target|| / ||target||
};

// Per-channel metrics of a [C, H, W] prediction against its target.
std::vector<ErrorMetrics> channel_metrics(const Tensor& prediction,
                                          const Tensor& target,
                                          double mape_eps = 1e-6);

// Metrics over all channels at once.
ErrorMetrics overall_metrics(const Tensor& prediction, const Tensor& target,
                             double mape_eps = 1e-6);

// Display name of a channel index ("pressure", "density", "vel-x", "vel-y").
std::string channel_name(std::int64_t channel);

// Horizontal centerline profile (row H/2) of one channel — the 1-d comparison
// used to eyeball Fig. 3 agreement in text output.
std::vector<float> centerline(const Tensor& frame, std::int64_t channel);

}  // namespace parpde::core
