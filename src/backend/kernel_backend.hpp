#pragma once

// Execution-provider split for the fused inference convolution (the
// onnxruntime idiom): nn::ForwardPlan runs every conv of a plan through a
// KernelBackend, which owns the per-plan state and the conv kernel. The
// interface holds only what its providers do differently; everything both
// would share (training, ConvLSTM, transpose convs, standalone activations)
// calls the nn kernels directly.
//
// Two providers exist:
//   - blocked_f32(): the reference backend. Its conv is the training lowering
//     nn::conv2d_forward_batched with the fused activation, so a plan is
//     bit-identical to Module::forward.
//   - quantized_int8(): inference-only low-precision provider. Weights are
//     quantized per output channel to symmetric int8, activations to uint8
//     with a fixed per-layer scale calibrated from one fp32 reference pass;
//     the conv is one direct int8xint8->int32 convolution over channel-quad
//     uint8 activations with an fp32 dequant epilogue that fuses the bias add
//     and the activation. Along a chain of convs (ConvLayerDesc::feeds_next)
//     that epilogue also quantizes for the next layer, so only the chain's
//     first layer reads fp32 and only its last writes fp32.
//
// The fused inference path works on a PlanContext: an opaque per-plan state
// object the backend pre-sizes at construction (packed/quantized weights,
// lowering and activation workspaces), so nn::ForwardPlan keeps its
// zero-allocation steady-state contract under any backend. Integer
// accumulation is exact and the fp32 epilogue is elementwise, so each backend
// is bit-deterministic at any thread count and any batch size.

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "nn/conv_ops.hpp"

namespace parpde::backend {

// Activation fused into a convolution's epilogue (the ForwardPlan peephole
// merges a conv step with the pointwise layer that follows it).
using Fused = nn::FusedActivation;

// One convolution layer of a fused inference plan. Weight/bias pointers are
// non-owning views into the live model (same contract as nn::ForwardPlan).
struct ConvLayerDesc {
  const float* weight = nullptr;  // [Cout x Cin*k*k] row-major
  const float* bias = nullptr;    // [Cout], nullptr = no bias
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;
  std::int64_t pad = 0;
  Fused fused = Fused::kNone;
  float slope = 0.0f;  // kLeakyReLU only
  // Set when this conv's output is read by nothing but the next layer of the
  // same context, in the same pass (ForwardPlan marks each conv step followed
  // directly by another). The backend may then hand that layer its input in
  // its own format instead of writing y: y's contents are unspecified after
  // the call, and the context's next conv call must be layer + 1 with x == y
  // at the geometry this call produced (the int8 backend throws
  // std::logic_error otherwise). Single-layer callers leave it false and get
  // fp32 in, fp32 out.
  bool feeds_next = false;
};

// Backend-owned per-plan state: packed/quantized weights plus every workspace
// the plan's convs touch, pre-sized for the plan's maximum geometry.
class PlanContext {
 public:
  virtual ~PlanContext();
  // Workspace regrowths since construction (0 in a pre-sized steady state);
  // feeds ForwardPlan::growth_events().
  [[nodiscard]] virtual std::uint64_t growth_events() const noexcept = 0;
};

class KernelBackend {
 public:
  virtual ~KernelBackend();

  // Stable identifier ("fp32", "int8") used by RolloutOptions/CLI selection
  // and the backend.* telemetry tags.
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  // --- fused inference path (ForwardPlan) ----------------------------------
  // Pre-sizes all per-plan state for inputs up to [_, max_h, max_w], with
  // workspaces wide enough for conv_forward_batched calls up to `max_batch`
  // samples (1 = the classic single-sample plan).
  [[nodiscard]] virtual std::unique_ptr<PlanContext> make_plan_context(
      const std::vector<ConvLayerDesc>& layers, std::int64_t max_h,
      std::int64_t max_w, std::int64_t max_batch = 1) const = 0;

  // y [B, Cout, OH, OW] = fused_act(W (*) x + b) for layer `layer` of
  // the context on `batch` stacked samples x [B, Cin, h, w], both contiguous.
  // Never allocates for in-range geometries (growths are counted by the
  // context). Each sample's bytes do not depend on the batch it runs in: the
  // fp32 conv's per-element tap-reduction order does not depend on the
  // batch, int8 accumulation is exact, and the epilogues are elementwise.
  // This is the contract SurrogateServer's cross-session coalescing relies
  // on; test_serve proves it end-to-end. A layer marked feeds_next may leave
  // y unwritten (see ConvLayerDesc).
  virtual void conv_forward_batched(PlanContext& ctx, int layer,
                                    const float* x, std::int64_t batch,
                                    std::int64_t h, std::int64_t w,
                                    float* y) const = 0;

  // One [Cin, h, w] sample: conv_forward_batched at batch 1.
  void conv_forward(PlanContext& ctx, int layer, const float* x,
                    std::int64_t h, std::int64_t w, float* y) const {
    conv_forward_batched(ctx, layer, x, 1, h, w, y);
  }

  // Activation-scale calibration protocol. The fp32 backend needs none; the
  // int8 backend must see per-conv-layer input ranges (max-abs over a
  // representative fp32 tile) before a conv may run.
  [[nodiscard]] virtual bool needs_calibration(const PlanContext& ctx) const;
  virtual void set_input_ranges(PlanContext& ctx,
                                const std::vector<float>& max_abs) const;
};

// Process-lifetime singletons.
[[nodiscard]] const KernelBackend& blocked_f32();
[[nodiscard]] const KernelBackend& quantized_int8();
// nullptr for unknown names ("fp32" and "int8" are valid).
[[nodiscard]] const KernelBackend* by_name(std::string_view name);

}  // namespace parpde::backend
