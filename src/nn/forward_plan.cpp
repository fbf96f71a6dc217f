#include "nn/forward_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "tensor/im2col.hpp"

namespace parpde::nn {

namespace {

float max_abs(const float* x, std::int64_t n) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

}  // namespace

ForwardPlan::ForwardPlan(Sequential& model, std::int64_t in_channels,
                         std::int64_t max_h, std::int64_t max_w,
                         const backend::KernelBackend* backend,
                         std::int64_t max_batch)
    : backend_(backend != nullptr ? backend : &backend::blocked_f32()),
      in_channels_(in_channels),
      max_h_(max_h),
      max_w_(max_w),
      max_batch_(max_batch > 0 ? max_batch : 1) {
  std::int64_t ch = in_channels;
  std::int64_t h = max_h;
  std::int64_t w = max_w;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    Module& layer = model.layer(i);
    auto reject = [&](const std::string& why) {
      throw std::invalid_argument("ForwardPlan: layer " + std::to_string(i) +
                                  " (" + layer.name() + ") " + why);
    };
    Step step;
    if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
      if (conv->in_channels() != ch) {
        reject("expects " + std::to_string(conv->in_channels()) +
               " input channels, gets " + std::to_string(ch));
      }
      backend::ConvLayerDesc desc;
      desc.weight = conv->weight().data();
      desc.bias = conv->bias().empty() ? nullptr : conv->bias().data();
      desc.in_channels = conv->in_channels();
      desc.out_channels = conv->out_channels();
      desc.kernel = conv->kernel();
      desc.pad = conv->pad();
      step.conv = static_cast<int>(descs_.size());
      descs_.push_back(desc);
    } else if (auto* deconv = dynamic_cast<ConvTranspose2d*>(&layer)) {
      // The transpose conv has one kernel, the fp32 scatter loop; a
      // low-precision backend must not silently run part of the net in fp32.
      if (backend_ != &backend::blocked_f32()) {
        reject(std::string("has no ") + backend_->name() +
               " kernel (transpose convs run on fp32 only)");
      }
      if (deconv->in_channels() != ch) {
        reject("expects " + std::to_string(deconv->in_channels()) +
               " input channels, gets " + std::to_string(ch));
      }
      step.op = Op::kDeconv;
      step.deconv = deconv;
    } else {
      // Pointwise layer: fuse into the preceding conv's epilogue when there
      // is one (the Table-I net is conv/act pairs throughout); otherwise keep
      // it as a standalone step.
      backend::Fused fused = backend::Fused::kNone;
      if (auto* leaky = dynamic_cast<LeakyReLU*>(&layer)) {
        fused = backend::Fused::kLeakyReLU;
        step.op = Op::kLeakyReLU;
        step.slope = leaky->negative_slope();
      } else if (dynamic_cast<ReLU*>(&layer) != nullptr) {
        fused = backend::Fused::kReLU;
        step.op = Op::kReLU;
      } else if (dynamic_cast<Tanh*>(&layer) != nullptr) {
        fused = backend::Fused::kTanh;
        step.op = Op::kTanh;
      } else {
        reject("is not a layer ForwardPlan can replay");
      }
      if (!steps_.empty() && steps_.back().op == Op::kConv &&
          descs_[static_cast<std::size_t>(steps_.back().conv)].fused ==
              backend::Fused::kNone) {
        backend::ConvLayerDesc& prev =
            descs_[static_cast<std::size_t>(steps_.back().conv)];
        prev.fused = fused;
        prev.slope = step.slope;
        continue;
      }
    }
    advance(step, ch, h, w);
    if (h <= 0 || w <= 0) {
      reject("leaves an empty output for a [" + std::to_string(max_h) + ", " +
             std::to_string(max_w) + "] input");
    }
    steps_.push_back(step);
  }
  // A conv step followed directly by another conv step hands that conv its
  // input and nothing else reads it, so the backend may keep it in its own
  // format (the int8 backend passes channel-quad bytes down the chain).
  for (std::size_t i = 0; i + 1 < steps_.size(); ++i) {
    if (steps_[i].op == Op::kConv && steps_[i + 1].op == Op::kConv) {
      descs_[static_cast<std::size_t>(steps_[i].conv)].feeds_next = true;
    }
  }
  out_channels_ = ch;
  shrink_ = max_h - h;
  if (shrink_ != max_w - w) {
    throw std::invalid_argument(
        "ForwardPlan: the model shrinks height and width unequally");
  }
  const auto peak = static_cast<std::size_t>(peak_plane(max_h, max_w));
  act_.ping.resize(static_cast<std::size_t>(max_batch_) * peak);
  act_.pong.resize(static_cast<std::size_t>(max_batch_) * peak);
  ctx_ = backend_->make_plan_context(descs_, max_h, max_w, max_batch_);
}

void ForwardPlan::advance(const Step& step, std::int64_t& ch, std::int64_t& h,
                          std::int64_t& w) const {
  if (step.op == Op::kConv) {
    const backend::ConvLayerDesc& l =
        descs_[static_cast<std::size_t>(step.conv)];
    const ConvGeometry g{l.in_channels, h, w, l.kernel, l.pad};
    ch = l.out_channels;
    h = g.out_height();
    w = g.out_width();
  } else if (step.op == Op::kDeconv) {
    ch = step.deconv->out_channels();
    h += step.deconv->kernel() - 1;
    w += step.deconv->kernel() - 1;
  }
}

std::int64_t ForwardPlan::peak_plane(std::int64_t h, std::int64_t w) const {
  // A pointwise step writes a buffer of its input's size, so an
  // activation-first model needs room for the input plane too.
  std::int64_t ch = in_channels_;
  std::int64_t peak = 0;
  for (const Step& step : steps_) {
    advance(step, ch, h, w);
    peak = std::max(peak, ch * h * w);
  }
  return peak;
}

float* ForwardPlan::ensure(util::AlignedVector<float>& buf,
                           std::int64_t floats) {
  if (static_cast<std::int64_t>(buf.size()) < floats) {
    buf.resize(static_cast<std::size_t>(floats));
  }
  return buf.data();
}

bool ForwardPlan::needs_calibration() const {
  return backend_->needs_calibration(*ctx_);
}

void ForwardPlan::calibrate(const float* x, std::int64_t h, std::int64_t w) {
  // One fp32 reference pass through a throwaway context and buffers,
  // recording each conv layer's input max-abs. Runs on the reference backend
  // regardless of the plan's own, so calibration is backend-independent and
  // deterministic, and leaves the plan's own state untouched.
  const backend::KernelBackend& ref = backend::blocked_f32();
  auto ctx = ref.make_plan_context(descs_, h, w);
  const auto peak = static_cast<std::size_t>(peak_plane(h, w));
  Buffers buf{util::AlignedVector<float>(peak),
              util::AlignedVector<float>(peak)};
  std::vector<float> ranges;
  ranges.reserve(descs_.size());
  (void)walk(ref, *ctx, buf, x, 1, h, w, &ranges);
  set_calibration(std::move(ranges));
}

void ForwardPlan::set_calibration(std::vector<float> ranges) {
  if (ranges.size() != descs_.size()) {
    throw std::invalid_argument(
        "ForwardPlan::set_calibration: one range per conv layer required");
  }
  ranges_ = std::move(ranges);
  backend_->set_input_ranges(*ctx_, ranges_);
}

ForwardPlan::Output ForwardPlan::run(const float* x, std::int64_t h,
                                     std::int64_t w) {
  return walk(*backend_, *ctx_, act_, x, 1, h, w, nullptr);
}

ForwardPlan::Output ForwardPlan::run_batched(const float* x,
                                             std::int64_t batch,
                                             std::int64_t h, std::int64_t w) {
  if (batch <= 0) {
    throw std::invalid_argument("ForwardPlan::run_batched: batch must be > 0");
  }
  return walk(*backend_, *ctx_, act_, x, batch, h, w, nullptr);
}

ForwardPlan::Output ForwardPlan::walk(const backend::KernelBackend& bk,
                                      backend::PlanContext& ctx, Buffers& buf,
                                      const float* x, std::int64_t batch,
                                      std::int64_t h, std::int64_t w,
                                      std::vector<float>* ranges) {
  // Reject a too-small input before any step runs: a pass must not stop
  // between two chained convs (ConvLayerDesc::feeds_next).
  {
    std::int64_t ch = in_channels_, oh = h, ow = w;
    for (const Step& step : steps_) {
      advance(step, ch, oh, ow);
      if (oh <= 0 || ow <= 0) {
        throw std::invalid_argument("ForwardPlan: input below kernel size");
      }
    }
  }
  const float* cur = x;
  float* cur_buf = nullptr;  // non-null iff `cur` is one of our buffers
  std::int64_t ch = in_channels_;

  for (const Step& step : steps_) {
    std::int64_t oc = ch;
    std::int64_t oh = h;
    std::int64_t ow = w;
    advance(step, oc, oh, ow);
    const bool pointwise = step.op != Op::kConv && step.op != Op::kDeconv;
    float* dst = nullptr;
    if (pointwise && cur_buf != nullptr) {
      dst = cur_buf;  // in place
    } else {
      // Write the other ping-pong buffer than the one `cur` lives in.
      util::AlignedVector<float>& out_vec =
          (cur_buf != nullptr && cur_buf == buf.ping.data()) ? buf.pong
                                                              : buf.ping;
      dst = ensure(out_vec, batch * oc * oh * ow);
    }
    const std::int64_t n = batch * ch * h * w;
    switch (step.op) {
      case Op::kConv:
        if (ranges != nullptr) ranges->push_back(max_abs(cur, n));
        bk.conv_forward_batched(ctx, step.conv, cur, batch, h, w, dst);
        break;
      case Op::kDeconv:
        conv_transpose2d_forward(cur, step.deconv->weight().data(),
                                 step.deconv->bias().data(), batch, ch, oc, h,
                                 w, step.deconv->kernel(), dst);
        break;
      case Op::kLeakyReLU:
        leaky_relu_forward(cur, dst, n, step.slope);
        break;
      case Op::kReLU:
        relu_forward(cur, dst, n);
        break;
      case Op::kTanh:
        tanh_forward(cur, dst, n);
        break;
    }
    cur = dst;
    cur_buf = dst;
    ch = oc;
    h = oh;
    w = ow;
  }
  return Output{cur, ch, h, w};
}

}  // namespace parpde::nn
