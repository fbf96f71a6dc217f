#pragma once

// Shared test utilities: finite-difference gradients, tensor comparisons, a
// scoped fault-plan installer, the module-graph forward every ForwardPlan is
// checked against, the stepped rollout oracle every parallel_rollout engine
// is checked against (with the sink that records a rollout's frames), and the
// im2col lowering and col2im scatter the direct conv forward and data
// gradient are checked against.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "core/inference.hpp"
#include "domain/halo.hpp"
#include "minimpi/fault.hpp"
#include "nn/forward_plan.hpp"
#include "nn/sequential.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"

namespace parpde {

// im2col: expands one CHW sample `x` into the column matrix `col`
// [Cin*k*k x OH*OW] (row stride `ld`, -1 = dense), row (c, ky, kx) holding
// that tap of every output pixel; out-of-range taps are zeros. With one GEMM
// W * col and the bias/activation epilogue this was the library's forward
// before the direct kernel replaced it; conv2d_forward_batched must match it
// bit for bit.
inline void im2col(const float* x, const ConvGeometry& g, float* col,
                   std::int64_t ld = -1) {
  const std::int64_t oh = g.out_height();
  const std::int64_t ow = g.out_width();
  const std::int64_t cols = ld < 0 ? oh * ow : ld;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    const float* plane = x + c * g.height * g.width;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out = col + row * cols;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t sy = y + ky - g.pad;
          for (std::int64_t xo = 0; xo < ow; ++xo) {
            const std::int64_t sx = xo + kx - g.pad;
            const bool inside =
                sy >= 0 && sy < g.height && sx >= 0 && sx < g.width;
            out[y * ow + xo] = inside ? plane[sy * g.width + sx] : 0.0f;
          }
        }
      }
    }
  }
}

// Whole-batch im2col: sample s occupies columns [s*OH*OW, (s+1)*OH*OW) of
// one wide [Cin*k*k x batch*OH*OW] matrix.
inline void im2col_batched(const float* x, std::int64_t batch,
                           const ConvGeometry& g, float* col) {
  const std::int64_t in_stride = g.in_channels * g.height * g.width;
  const std::int64_t cols = g.col_cols();
  for (std::int64_t s = 0; s < batch; ++s) {
    im2col(x + s * in_stride, g, col + s * cols, batch * cols);
  }
}

// col2im: scatters a column matrix (the layout of im2col, row stride `ld`,
// -1 = dense) back into CHW sample gradients, accumulating overlapping
// contributions into the caller-zeroed `x_grad` in (c, ky, kx) row order.
// With dcol = W^T * dY this was the library's data gradient before the
// direct kernel replaced it; conv2d_backward_batched's dx must match it bit
// for bit.
inline void col2im(const float* col, const ConvGeometry& g, float* x_grad,
                   std::int64_t ld = -1) {
  const std::int64_t oh = g.out_height();
  const std::int64_t ow = g.out_width();
  const std::int64_t cols = ld < 0 ? oh * ow : ld;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    float* plane = x_grad + c * g.height * g.width;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in = col + row * cols;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t sy = y + ky - g.pad;
          if (sy < 0 || sy >= g.height) continue;
          const float* irow = in + y * ow;
          float* drow = plane + sy * g.width;
          const std::int64_t x_lo = std::max<std::int64_t>(0, g.pad - kx);
          const std::int64_t x_hi =
              std::min<std::int64_t>(ow, g.width + g.pad - kx);
          for (std::int64_t xi = x_lo; xi < x_hi; ++xi) {
            drow[xi + kx - g.pad] += irow[xi];
          }
        }
      }
    }
  }
}

// Inverse of im2col_batched: scatters the wide column matrix back into the
// NCHW gradient `x_grad` (caller zero-initialized), one sample at a time.
inline void col2im_batched(const float* col, std::int64_t batch,
                           const ConvGeometry& g, float* x_grad) {
  const std::int64_t in_stride = g.in_channels * g.height * g.width;
  const std::int64_t cols = g.col_cols();
  for (std::int64_t s = 0; s < batch; ++s) {
    col2im(col + s * cols, g, x_grad + s * in_stride, batch * cols);
  }
}

}  // namespace parpde

namespace parpde::testing {

// Installs a fault plan for the scope. Every test that installs a plan must
// remove it on exit, or the global hook would leak faults into later tests.
struct PlanGuard {
  explicit PlanGuard(mpi::fault::FaultPlan plan) {
    mpi::fault::install(std::move(plan));
  }
  ~PlanGuard() { mpi::fault::uninstall(); }
  PlanGuard(const PlanGuard&) = delete;
  PlanGuard& operator=(const PlanGuard&) = delete;
};

// Central-difference numerical gradient of a scalar function with respect to
// every entry of `x`. `fn` must not mutate `x` permanently (it is restored
// between evaluations).
inline Tensor numeric_gradient(const std::function<double()>& fn, Tensor& x,
                               float h = 1e-2f) {
  Tensor grad(x.shape());
  for (std::int64_t i = 0; i < x.size(); ++i) {
    const float saved = x[i];
    x[i] = saved + h;
    const double up = fn();
    x[i] = saved - h;
    const double down = fn();
    x[i] = saved;
    grad[i] = static_cast<float>((up - down) / (2.0 * h));
  }
  return grad;
}

// Expects |a - b| <= atol + rtol * |b| elementwise.
inline void expect_tensors_close(const Tensor& a, const Tensor& b,
                                 double atol = 1e-5, double rtol = 1e-4) {
  ASSERT_TRUE(a.same_shape(b))
      << shape_to_string(a.shape()) << " vs " << shape_to_string(b.shape());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const double av = a[i];
    const double bv = b[i];
    EXPECT_NEAR(av, bv, atol + rtol * std::fabs(bv)) << "at index " << i;
  }
}

inline void expect_tensors_equal(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "at index " << i;
  }
}

// Module-graph forward on one [C, h, w] tile: reshapes `input` in place
// around Sequential::forward (no input copy) and returns [C', h', w']. The
// oracle for ForwardPlan, which must match it bit for bit on fp32.
inline Tensor module_forward(nn::Sequential& model, Tensor& input) {
  input.reshape({1, input.dim(0), input.dim(1), input.dim(2)});
  Tensor out = model.forward(input);
  input.reshape({input.dim(1), input.dim(2), input.dim(3)});
  out.reshape({out.dim(1), out.dim(2), out.dim(3)});
  return out;
}

// The reference step loop for parallel_rollout, run serially in the test
// (the monolithic-reference check of the decomposed network). Every block of
// `report` gets its own network and ForwardPlan on `backend` (nullptr =
// fp32); a plan that needs calibration (int8) is calibrated on the block's
// zero-extended initial interior, exactly as parallel_rollout does. Each
// step extracts every block with its halo from the previous full frame and
// runs the plan on the whole halo-extended tile. Returns the full frame after
// every step.
//
// `isolated_from[b]` (optional, one entry per block) is the first step from
// which block b reads no neighbour data: its whole halo band stays zero, the
// state of a block whose every interior border has degraded.
inline std::vector<Tensor> stepped_rollout_oracle(
    const core::TrainConfig& cfg, const core::ParallelTrainReport& report,
    const Tensor& initial, int steps,
    const backend::KernelBackend* backend = nullptr,
    const std::vector<int>& isolated_from = {}) {
  const domain::Partition partition(initial.dim(1), initial.dim(2),
                                    report.dims.px, report.dims.py);
  const std::int64_t halo = cfg.border == core::BorderMode::kHaloPad
                                ? cfg.network.receptive_halo()
                                : 0;
  const std::int64_t c = initial.dim(0);
  std::vector<std::unique_ptr<nn::Sequential>> models;
  std::vector<std::unique_ptr<nn::ForwardPlan>> plans;
  for (int b = 0; b < report.ranks; ++b) {
    const domain::BlockRange block = partition.block_of_rank(b);
    const std::int64_t bh = block.height(), bw = block.width();
    models.push_back(core::rebuild_model(
        cfg, report.rank_outcomes[static_cast<std::size_t>(b)].parameters));
    plans.push_back(std::make_unique<nn::ForwardPlan>(
        *models.back(), c, bh + 2 * halo, bw + 2 * halo, backend));
    if (plans.back()->needs_calibration()) {
      Tensor calib({c, bh + 2 * halo, bw + 2 * halo});
      calib.fill(0.0f);
      const Tensor interior = domain::extract_interior(initial, block);
      domain::copy_window(calib, halo, halo, interior.data(), c, bh, bw);
      plans.back()->calibrate(calib.data(), calib.dim(1), calib.dim(2));
    }
  }
  std::vector<Tensor> frames;
  Tensor frame = initial;
  Tensor input;
  for (int step = 0; step < steps; ++step) {
    Tensor next(frame.shape());
    for (int b = 0; b < report.ranks; ++b) {
      const domain::BlockRange block = partition.block_of_rank(b);
      domain::extract_with_halo_into(frame, block, halo, input);
      const auto ib = static_cast<std::size_t>(b);
      if (ib < isolated_from.size() && step >= isolated_from[ib]) {
        const std::int64_t h = input.dim(1), w = input.dim(2);
        domain::zero_region(input, 0, halo, 0, w);
        domain::zero_region(input, h - halo, halo, 0, w);
        domain::zero_region(input, 0, h, 0, halo);
        domain::zero_region(input, 0, h, w - halo, halo);
      }
      const nn::ForwardPlan::Output out =
          plans[ib]->run(input.data(), input.dim(1), input.dim(2));
      domain::copy_window(next, block.h0, block.w0, out.data, out.channels,
                          block.height(), block.width());
    }
    frame = next;
    frames.push_back(std::move(next));
  }
  return frames;
}

// A parallel_rollout run together with the frames its on_frame sink saw,
// keyed by 0-based step. A later delivery of a step replaces the earlier one
// (an elastic rollback delivers its recomputed steps again).
struct RecordedRollout {
  core::RolloutResult result;
  std::map<int, Tensor> frames;

  [[nodiscard]] std::vector<int> steps() const {
    std::vector<int> out;
    for (const auto& entry : frames) out.push_back(entry.first);
    return out;
  }
};

// parallel_rollout with a sink installed in `options` that records every
// delivered frame.
inline RecordedRollout recorded_rollout(const core::TrainConfig& cfg,
                                        const core::ParallelTrainReport& report,
                                        const Tensor& initial, int steps,
                                        core::RolloutOptions options = {}) {
  RecordedRollout out;
  options.on_frame = [&out](int step, const Tensor& frame) {
    out.frames[step] = frame;
  };
  out.result = core::parallel_rollout(cfg, report, initial, steps, options);
  return out;
}

// Expects a rollout that recorded every step to have delivered each one
// equal, bit for bit, to the oracle frame of the same step, and
// RolloutResult::frames to hold just the final one.
inline void expect_frames_match_oracle(const RecordedRollout& run,
                                       const std::vector<Tensor>& oracle) {
  ASSERT_EQ(run.frames.size(), oracle.size());
  for (const auto& [step, frame] : run.frames) {
    SCOPED_TRACE("step " + std::to_string(step));
    ASSERT_LT(static_cast<std::size_t>(step), oracle.size());
    expect_tensors_equal(frame, oracle[static_cast<std::size_t>(step)]);
  }
  ASSERT_EQ(run.result.frames.size(), 1u);
  expect_tensors_equal(run.result.frames.front(), oracle.back());
}

// Expects two runs to have recorded the same steps with bit-identical frames.
inline void expect_frames_bit_identical(const RecordedRollout& a,
                                        const RecordedRollout& b) {
  ASSERT_EQ(a.steps(), b.steps());
  for (const auto& [step, frame] : a.frames) {
    SCOPED_TRACE("step " + std::to_string(step));
    expect_tensors_equal(frame, b.frames.at(step));
  }
}

}  // namespace parpde::testing
