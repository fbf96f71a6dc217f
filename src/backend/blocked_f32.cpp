#include "backend/kernel_backend.hpp"

#include "util/telemetry.hpp"

namespace parpde::backend {

namespace {

// fp32 plan state: the layer list plus one Conv2dWorkspace that every layer
// shares, pre-sized for what the direct forward of any layer stages at up to
// max_batch samples.
struct F32PlanContext final : PlanContext {
  F32PlanContext(const std::vector<ConvLayerDesc>& descs, std::int64_t max_h,
                 std::int64_t max_w, std::int64_t max_batch)
      : layers(descs) {
    std::int64_t h = max_h, w = max_w;
    for (const ConvLayerDesc& l : layers) {
      const ConvGeometry g{l.in_channels, h, w, l.kernel, l.pad};
      nn::conv2d_forward_reserve(g, l.out_channels, max_batch, ws);
      h = g.out_height();
      w = g.out_width();
    }
  }

  [[nodiscard]] std::uint64_t growth_events() const noexcept override {
    return growths;
  }

  std::vector<ConvLayerDesc> layers;
  nn::Conv2dWorkspace ws;
  std::uint64_t growths = 0;
};

// The fp32 provider: the plan's convs run the training forward
// (nn::conv2d_forward_batched) with the layer's fused activation, so plan and
// module graph share one kernel and agree bit for bit.
class BlockedF32Backend final : public KernelBackend {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "fp32"; }

  [[nodiscard]] std::unique_ptr<PlanContext> make_plan_context(
      const std::vector<ConvLayerDesc>& layers, std::int64_t max_h,
      std::int64_t max_w, std::int64_t max_batch) const override {
    return std::make_unique<F32PlanContext>(layers, max_h, max_w, max_batch);
  }

  void conv_forward_batched(PlanContext& ctx, int layer, const float* x,
                            std::int64_t batch, std::int64_t h, std::int64_t w,
                            float* y) const override {
    auto& c = static_cast<F32PlanContext&>(ctx);
    const ConvLayerDesc& l = c.layers[static_cast<std::size_t>(layer)];
    const ConvGeometry g{l.in_channels, h, w, l.kernel, l.pad};
    static telemetry::Counter& flops =
        telemetry::counter("backend.fp32.gemm_flops");
    telemetry::Span span(batch == 1 ? "conv.fp32" : "conv.fp32.batched",
                         "backend");
    const std::size_t sized = c.ws.elements();
    nn::conv2d_forward_batched(x, batch, g, l.weight, l.out_channels, l.bias,
                               l.fused, l.slope, y, c.ws);
    if (c.ws.elements() != sized) ++c.growths;
    flops.add(static_cast<std::uint64_t>(2 * l.out_channels * g.col_rows() *
                                         batch * g.col_cols()));
  }
};

}  // namespace

PlanContext::~PlanContext() = default;
KernelBackend::~KernelBackend() = default;

bool KernelBackend::needs_calibration(const PlanContext&) const { return false; }
void KernelBackend::set_input_ranges(PlanContext&,
                                     const std::vector<float>&) const {}

const KernelBackend& blocked_f32() {
  static const BlockedF32Backend backend;
  return backend;
}

const KernelBackend* by_name(std::string_view name) {
  if (name == "fp32") return &blocked_f32();
  if (name == "int8") return &quantized_int8();
  return nullptr;
}

}  // namespace parpde::backend
