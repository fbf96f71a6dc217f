#pragma once

// Pre-sized inference plan for a Sequential of Conv2d, ConvTranspose2d and
// pointwise activation layers (the paper's Table-I subdomain network and its
// deconv border-mode variant). The plan walks the model once at construction,
// pre-allocates every per-layer activation buffer, asks the selected
// KernelBackend for a PlanContext holding the backend-side state (the direct
// conv's staging workspace for fp32; quantized weights and channel-quad
// activations for int8), and marks every conv whose output feeds only the
// next conv (ConvLayerDesc::feeds_next, which lets the int8 backend pass
// uint8 activations down the chain). It then evaluates forward passes into
// those buffers: the steady-state step
// performs zero heap allocations on either backend (verified by the
// counting-allocator tests in tests/test_rollout_overlap.cpp and
// tests/test_quant_rollout.cpp).
//
// Every inference path (parallel_rollout with the elastic runtime on or off,
// SubdomainEnsemble, SurrogateServer) runs one plan pass per step on the
// whole input tile; run() accepts any input no larger than the pre-sized
// maximum. On the fp32 backend results are bit-identical to Module::forward:
// the convs run the training forward nn::conv2d_forward_batched (whose
// per-element tap-reduction order is independent of the batch and the
// worker count), transpose convs and standalone activations call the layers'
// own kernels, and the fused bias/activation epilogue applies the layers'
// exact per-element formulas. On the int8 backend results are
// bit-deterministic (integer accumulation is exact; activation scales are
// fixed by calibration, not derived per call) but intentionally differ from
// fp32 within the documented error budget.
//
// The plan holds non-owning pointers into the Sequential's layers; the model
// must outlive the plan and keep its layer list unchanged.

#include <cstdint>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "nn/sequential.hpp"
#include "util/aligned.hpp"

namespace parpde::nn {

class ConvTranspose2d;

class ForwardPlan {
 public:
  // Walks `model` and pre-sizes all buffers for inputs up to
  // [in_channels, max_h, max_w]. `backend` selects the execution provider
  // (nullptr = the reference fp32 backend). `max_batch` additionally
  // pre-sizes the plan for run_batched() calls of up to that many stacked
  // samples (1 = the classic single-sample plan). Throws
  // std::invalid_argument naming the offending layer when the plan cannot
  // replay the model: a layer other than Conv2d / ConvTranspose2d /
  // LeakyReLU / ReLU / Tanh, an input channel mismatch, an empty output at
  // the maximum geometry, a ConvTranspose2d on any backend but fp32, or a
  // non-square total shrink.
  ForwardPlan(Sequential& model, std::int64_t in_channels, std::int64_t max_h,
              std::int64_t max_w,
              const backend::KernelBackend* backend = nullptr,
              std::int64_t max_batch = 1);

  [[nodiscard]] const backend::KernelBackend& backend() const noexcept {
    return *backend_;
  }

  // Non-owning view of the result; valid until the next run() call.
  struct Output {
    const float* data = nullptr;
    std::int64_t channels = 0;
    std::int64_t height = 0;
    std::int64_t width = 0;

    [[nodiscard]] std::int64_t size() const { return channels * height * width; }
  };

  // Evaluates the model on a dense CHW input [in_channels, h, w] with
  // h <= max_h and w <= max_w. Never allocates for in-range geometries;
  // out-of-range ones grow the buffers.
  Output run(const float* x, std::int64_t h, std::int64_t w);

  // Evaluates the model on `batch` stacked samples [B, in_channels, h, w] in
  // one pass per layer: every conv runs the whole batch in one backend
  // conv_forward_batched call. Output::data points at the stacked
  // [B, out_channels, oh, ow] result; the per-sample shape is in the Output
  // fields. Each sample's bytes are identical to a solo run() on that sample
  // — the cross-session coalescing contract SurrogateServer builds on (see
  // docs/serving.md). Never allocates for batch <= max_batch and in-range
  // geometries.
  Output run_batched(const float* x, std::int64_t batch, std::int64_t h,
                     std::int64_t w);

  // --- activation-scale calibration (int8 backend) --------------------------
  // True when the backend quantizes activations and no input ranges have been
  // installed yet; run() must not be called in that state.
  [[nodiscard]] bool needs_calibration() const;
  // One fp32 reference pass over a representative tile [in_channels, h, w]
  // (at most the pre-sized geometry): records each conv layer's input
  // max-abs and installs the ranges into the backend context. Allocates
  // (calibration happens before steady state).
  void calibrate(const float* x, std::int64_t h, std::int64_t w);
  // Installs externally recorded ranges (e.g. the quantized-weights section
  // of a serialized model); one entry per conv layer.
  void set_calibration(std::vector<float> ranges);
  // Ranges installed by calibrate()/set_calibration(); empty before either.
  [[nodiscard]] const std::vector<float>& calibration() const noexcept {
    return ranges_;
  }

  [[nodiscard]] std::int64_t in_channels() const noexcept {
    return in_channels_;
  }
  [[nodiscard]] std::int64_t out_channels() const noexcept {
    return out_channels_;
  }
  // Total spatial shrink of the stack: output is [out_channels, h - s, w - s]
  // for input height/width h, w (0 for "same"-padded and deconv-mode nets).
  [[nodiscard]] std::int64_t shrink() const noexcept { return shrink_; }
  // Largest batch the plan pre-sized run_batched() for.
  [[nodiscard]] std::int64_t max_batch() const noexcept { return max_batch_; }

 private:
  enum class Op { kConv, kDeconv, kLeakyReLU, kReLU, kTanh };

  // Post-fusion step list: a kConv step indexes the ConvLayerDesc (which may
  // carry a fused activation); the pointwise ops only appear standalone when
  // they have no conv to fuse into (an activation-first model, or the
  // activation after a transpose conv).
  struct Step {
    Op op = Op::kConv;
    int conv = -1;                      // kConv: index into descs_
    ConvTranspose2d* deconv = nullptr;  // kDeconv
    float slope = 0.0f;                 // kLeakyReLU only
  };

  // Activation ping-pong pair a pass writes its layer outputs into.
  struct Buffers {
    util::AlignedVector<float> ping;
    util::AlignedVector<float> pong;
  };

  static float* ensure(util::AlignedVector<float>& buf, std::int64_t floats);

  // Shape [ch, h, w] after `step` (pointwise steps keep it).
  void advance(const Step& step, std::int64_t& ch, std::int64_t& h,
               std::int64_t& w) const;
  // Largest activation buffer (in floats) any step writes for one sample of
  // [in_channels, h, w].
  [[nodiscard]] std::int64_t peak_plane(std::int64_t h, std::int64_t w) const;

  // One pass of `batch` stacked samples through every step on `bk`/`ctx`,
  // writing the activations into `buf`; each conv is one backend
  // conv_forward_batched call. When `ranges` is non-null each conv layer's
  // input max-abs is appended to it (calibrate()).
  Output walk(const backend::KernelBackend& bk, backend::PlanContext& ctx,
              Buffers& buf, const float* x, std::int64_t batch,
              std::int64_t h, std::int64_t w, std::vector<float>* ranges);

  const backend::KernelBackend* backend_ = nullptr;
  std::vector<Step> steps_;
  std::vector<backend::ConvLayerDesc> descs_;
  std::unique_ptr<backend::PlanContext> ctx_;
  std::vector<float> ranges_;
  std::int64_t in_channels_ = 0;
  std::int64_t out_channels_ = 0;
  std::int64_t max_h_ = 0;
  std::int64_t max_w_ = 0;
  std::int64_t max_batch_ = 1;
  std::int64_t shrink_ = 0;

  Buffers act_;  // activation ping-pong buffers
};

}  // namespace parpde::nn
