#include "core/metrics.hpp"

#include <cmath>
#include <stdexcept>

namespace parpde::core {

namespace {

ErrorMetrics metrics_over(const float* pred, const float* target,
                          std::int64_t count, double eps) {
  ErrorMetrics m;
  double mape_sum = 0.0;
  double sq_sum = 0.0;
  double target_sq_sum = 0.0;
  for (std::int64_t i = 0; i < count; ++i) {
    const double y = target[i];
    const double d = static_cast<double>(pred[i]) - y;
    mape_sum += std::fabs(d) / std::max(std::fabs(y), eps);
    sq_sum += d * d;
    target_sq_sum += y * y;
    m.max_err = std::max(m.max_err, std::fabs(d));
  }
  m.mape = 100.0 * mape_sum / static_cast<double>(count);
  m.rmse = std::sqrt(sq_sum / static_cast<double>(count));
  m.rel_l2 = target_sq_sum > 0.0 ? std::sqrt(sq_sum / target_sq_sum)
                                 : std::sqrt(sq_sum);
  return m;
}

void check_pair(const Tensor& prediction, const Tensor& target) {
  if (prediction.ndim() != 3 || !prediction.same_shape(target)) {
    throw std::invalid_argument("metrics: need matching [C,H,W] tensors");
  }
}

}  // namespace

std::vector<ErrorMetrics> channel_metrics(const Tensor& prediction,
                                          const Tensor& target,
                                          double mape_eps) {
  check_pair(prediction, target);
  const auto c = prediction.dim(0);
  const auto plane = prediction.dim(1) * prediction.dim(2);
  std::vector<ErrorMetrics> out;
  out.reserve(static_cast<std::size_t>(c));
  for (std::int64_t ic = 0; ic < c; ++ic) {
    out.push_back(metrics_over(prediction.data() + ic * plane,
                               target.data() + ic * plane, plane, mape_eps));
  }
  return out;
}

ErrorMetrics overall_metrics(const Tensor& prediction, const Tensor& target,
                             double mape_eps) {
  check_pair(prediction, target);
  return metrics_over(prediction.data(), target.data(), prediction.size(),
                      mape_eps);
}

std::string channel_name(std::int64_t channel) {
  switch (channel) {
    case euler::kPressure:
      return "pressure";
    case euler::kDensity:
      return "density";
    case euler::kVelX:
      return "vel-x";
    case euler::kVelY:
      return "vel-y";
    default:
      return "ch" + std::to_string(channel);
  }
}

std::vector<float> centerline(const Tensor& frame, std::int64_t channel) {
  if (frame.ndim() != 3 || channel < 0 || channel >= frame.dim(0)) {
    throw std::invalid_argument("centerline: bad frame/channel");
  }
  const auto h = frame.dim(1), w = frame.dim(2);
  const float* row = frame.data() + (channel * h + h / 2) * w;
  return std::vector<float>(row, row + w);
}

}  // namespace parpde::core
