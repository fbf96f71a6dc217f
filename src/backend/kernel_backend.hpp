#pragma once

// Execution-provider split for the compute kernels (the onnxruntime idiom):
// a KernelBackend owns convolution (GEMM-lowered), transpose-convolution
// and activation execution, and every layer above this directory dispatches
// through it instead of calling tensor::gemm / nn::conv_ops directly
// (enforced by the backend-bypass rule in tools/parpde_lint.py).
//
// Two providers exist:
//   - blocked_f32(): the reference backend — the blocked fp32 kernels from
//     PR 1, repackaged. Bit-identical to the pre-backend call paths.
//   - quantized_int8(): inference-only low-precision provider. Weights are
//     quantized per output channel to symmetric int8, activations to uint8
//     with a fixed per-layer scale calibrated from one fp32 reference pass;
//     the conv runs an int8xint8->int32 blocked micro-kernel with an fp32
//     dequant epilogue that fuses the bias add and the activation. Training
//     entry points delegate to the fp32 kernels (quantization applies to the
//     fused inference convolution only).
//
// The fused inference path works on a PlanContext: an opaque per-plan state
// object the backend pre-sizes at construction (packed/quantized weights,
// im2col workspaces), so nn::ForwardPlan keeps its zero-allocation
// steady-state contract under any backend. Integer accumulation is exact and
// the fp32 epilogue is elementwise, so each backend is bit-deterministic at
// any thread count and any batch size.

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "nn/conv_ops.hpp"
#include "tensor/tensor.hpp"

namespace parpde::backend {

// Activation fused into a convolution's epilogue (the ForwardPlan peephole
// merges a conv step with the pointwise layer that follows it).
enum class Fused { kNone, kLeakyReLU, kReLU, kTanh };

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
};

// Backend-owned per-plan state: packed/quantized weights plus every workspace
// conv_forward touches, pre-sized for the plan's maximum geometry.
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

  // --- convolution (module-graph path, fp32 on every backend) -------------
  virtual void conv2d_forward_batched(const Tensor& x, const Tensor& w,
                                      const Tensor& b, std::int64_t pad,
                                      Tensor& y, nn::Conv2dWorkspace& ws) const = 0;
  virtual void conv2d_backward_batched(const Tensor& x, const Tensor& dy,
                                       const Tensor& w, std::int64_t pad,
                                       Tensor& dx, Tensor& dw, Tensor& db,
                                       nn::Conv2dWorkspace& ws) const = 0;
  virtual void conv2d_backward_weights_batched(const Tensor& x,
                                               const Tensor& dy,
                                               std::int64_t pad, Tensor& dw,
                                               Tensor& db,
                                               nn::Conv2dWorkspace& ws) const = 0;
  virtual void conv2d_forward(const Tensor& x, const Tensor& w,
                              const Tensor& b, std::int64_t pad, Tensor& y,
                              util::AlignedVector<float>& col) const = 0;
  virtual void conv2d_backward_data(const Tensor& dy, const Tensor& w,
                                    std::int64_t pad, Tensor& dx,
                                    util::AlignedVector<float>& col) const = 0;
  virtual void conv2d_backward_weights(const Tensor& x, const Tensor& dy,
                                       std::int64_t pad, Tensor& dw, Tensor& db,
                                       util::AlignedVector<float>& col) const = 0;

  // --- transpose convolution (deconv border mode) --------------------------
  // y [N, Cout, H+k-1, W+k-1] = w (*)^T x + b for x [N, Cin, H, W] and
  // w [Cin, Cout, k, k]; y is fully overwritten.
  virtual void conv_transpose2d_forward(const float* x, const float* w,
                                        const float* bias, std::int64_t n,
                                        std::int64_t cin, std::int64_t cout,
                                        std::int64_t h, std::int64_t width,
                                        std::int64_t kernel, float* y) const = 0;

  // --- pointwise activations (src == dst allowed) --------------------------
  virtual void leaky_relu(const float* x, float* y, std::int64_t n,
                          float slope) const = 0;
  virtual void relu(const float* x, float* y, std::int64_t n) const = 0;
  virtual void tanh(const float* x, float* y, std::int64_t n) const = 0;

  // --- fused inference path (ForwardPlan) ----------------------------------
  // Pre-sizes all per-plan state for inputs up to [_, max_h, max_w], with
  // workspaces wide enough for conv_forward_batched calls up to `max_batch`
  // samples (1 = the classic single-sample plan).
  [[nodiscard]] virtual std::unique_ptr<PlanContext> make_plan_context(
      const std::vector<ConvLayerDesc>& layers, std::int64_t max_h,
      std::int64_t max_w, std::int64_t max_batch = 1) const = 0;

  // y [Cout x OH*OW] = fused_act(W * im2col(x) + b) for layer `layer` of the
  // context on one [Cin, h, w] sample. Never allocates for in-range
  // geometries (growths are counted by the context).
  virtual void conv_forward(PlanContext& ctx, int layer, const float* x,
                            std::int64_t h, std::int64_t w, float* y) const = 0;

  // Batched variant over `batch` stacked samples: x is [B, Cin, h, w], y is
  // [B, Cout, OH, OW], both contiguous. The whole batch is lowered into one
  // wide im2col matrix and one GEMM of width B*OH*OW — bit-identical per
  // sample to `batch` solo conv_forward calls, because the blocked GEMM's
  // per-element k-reduction order does not depend on the matrix width and the
  // epilogue is elementwise. This is the contract SurrogateServer's
  // cross-session coalescing relies on; test_serve proves it end-to-end.
  virtual void conv_forward_batched(PlanContext& ctx, int layer,
                                    const float* x, std::int64_t batch,
                                    std::int64_t h, std::int64_t w,
                                    float* y) const = 0;

  // Activation-scale calibration protocol. The fp32 backend needs none; the
  // int8 backend must see per-conv-layer input ranges (max-abs over a
  // representative fp32 tile) before conv_forward may run.
  [[nodiscard]] virtual bool needs_calibration(const PlanContext& ctx) const;
  virtual void set_input_ranges(PlanContext& ctx,
                                const std::vector<float>& max_abs) const;
};

// Process-lifetime singletons.
[[nodiscard]] const KernelBackend& blocked_f32();
[[nodiscard]] const KernelBackend& quantized_int8();
// nullptr for unknown names ("fp32" and "int8" are valid).
[[nodiscard]] const KernelBackend* by_name(std::string_view name);

// --- reference backend ------------------------------------------------------

// The blocked fp32 kernels behind a KernelBackend face. QuantizedInt8Backend
// derives from it: training and module-graph execution stay fp32; only the
// fused inference conv is overridden.
class BlockedF32Backend : public KernelBackend {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "fp32"; }

  void conv2d_forward_batched(const Tensor& x, const Tensor& w, const Tensor& b,
                              std::int64_t pad, Tensor& y,
                              nn::Conv2dWorkspace& ws) const override;
  void conv2d_backward_batched(const Tensor& x, const Tensor& dy,
                               const Tensor& w, std::int64_t pad, Tensor& dx,
                               Tensor& dw, Tensor& db,
                               nn::Conv2dWorkspace& ws) const override;
  void conv2d_backward_weights_batched(const Tensor& x, const Tensor& dy,
                                       std::int64_t pad, Tensor& dw, Tensor& db,
                                       nn::Conv2dWorkspace& ws) const override;
  void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                      std::int64_t pad, Tensor& y,
                      util::AlignedVector<float>& col) const override;
  void conv2d_backward_data(const Tensor& dy, const Tensor& w, std::int64_t pad,
                            Tensor& dx,
                            util::AlignedVector<float>& col) const override;
  void conv2d_backward_weights(const Tensor& x, const Tensor& dy,
                               std::int64_t pad, Tensor& dw, Tensor& db,
                               util::AlignedVector<float>& col) const override;

  void conv_transpose2d_forward(const float* x, const float* w,
                                const float* bias, std::int64_t n,
                                std::int64_t cin, std::int64_t cout,
                                std::int64_t h, std::int64_t width,
                                std::int64_t kernel, float* y) const override;

  void leaky_relu(const float* x, float* y, std::int64_t n,
                  float slope) const override;
  void relu(const float* x, float* y, std::int64_t n) const override;
  void tanh(const float* x, float* y, std::int64_t n) const override;

  [[nodiscard]] std::unique_ptr<PlanContext> make_plan_context(
      const std::vector<ConvLayerDesc>& layers, std::int64_t max_h,
      std::int64_t max_w, std::int64_t max_batch = 1) const override;
  void conv_forward(PlanContext& ctx, int layer, const float* x,
                    std::int64_t h, std::int64_t w, float* y) const override;
  void conv_forward_batched(PlanContext& ctx, int layer, const float* x,
                            std::int64_t batch, std::int64_t h, std::int64_t w,
                            float* y) const override;
};

}  // namespace parpde::backend
