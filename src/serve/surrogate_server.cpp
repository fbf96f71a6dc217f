#include "serve/surrogate_server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "minimpi/fault.hpp"
#include "minimpi/tags.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace parpde::serve {

namespace {

// serve.batch_occupancy buckets: occupancy is a small integer, so the bounds
// are fixed counts rather than the default latency decades.
constexpr double kOccupancyBounds[] = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0};

}  // namespace

const char* reject_name(Reject r) noexcept {
  switch (r) {
    case Reject::kNone:
      return "none";
    case Reject::kQueueFull:
      return "queue_full";
    case Reject::kDeadline:
      return "deadline";
    case Reject::kShutdown:
      return "shutdown";
    case Reject::kBadSession:
      return "bad_session";
  }
  return "unknown";
}

// serve-lint: setup-begin (construction pre-sizes every steady-state buffer)
SurrogateServer::SurrogateServer(nn::Sequential& model, std::int64_t channels,
                                 std::int64_t height, std::int64_t width,
                                 const ServerOptions& options)
    : options_(options),
      channels_(channels),
      height_(height),
      width_(width),
      plan_(model, channels, height, width, options.backend,
            options.max_batch) {
  if (options_.max_batch <= 0 || options_.queue_depth <= 0 ||
      options_.max_sessions <= 0) {
    throw std::invalid_argument(
        "SurrogateServer: max_batch, queue_depth and max_sessions must be "
        "positive");
  }
  if (plan_.shrink() != 0) {
    throw std::invalid_argument(
        "SurrogateServer: sessions are autoregressive on a fixed geometry — "
        "the model must be \"same\"-padded (zero spatial shrink)");
  }
  if (plan_.out_channels() != channels_) {
    throw std::invalid_argument(
        "SurrogateServer: model output channels must match input channels "
        "for autoregressive stepping");
  }
  sessions_.resize(static_cast<std::size_t>(options_.max_sessions));
  batch_.resize(static_cast<std::size_t>(options_.max_batch), nullptr);
  live_.resize(static_cast<std::size_t>(options_.max_batch), nullptr);
  staging_.resize(static_cast<std::size_t>(options_.max_batch * channels_ *
                                           height_ * width_));
  occupancy_.assign(static_cast<std::size_t>(options_.max_batch) + 1, 0);
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

SurrogateServer::~SurrogateServer() { shutdown(); }

bool SurrogateServer::needs_calibration() const {
  return plan_.needs_calibration();
}

void SurrogateServer::calibrate(const float* frame) {
  plan_.calibrate(frame, height_, width_);
}

void SurrogateServer::set_calibration(std::vector<float> ranges) {
  plan_.set_calibration(std::move(ranges));
}

std::int64_t SurrogateServer::open_session(const float* initial) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (stop_) return -1;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    Session& s = sessions_[i];
    if (s.open) continue;
    s.frame.resize(static_cast<std::size_t>(channels_ * height_ * width_));
    std::memcpy(s.frame.data(), initial,
                static_cast<std::size_t>(channels_ * height_ * width_) *
                    sizeof(float));
    s.steps = 0;
    s.open = true;
    s.busy = false;
    return static_cast<std::int64_t>(i);
  }
  return -1;
}

void SurrogateServer::close_session(std::int64_t id) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (id < 0 || id >= static_cast<std::int64_t>(sessions_.size()) ||
      !sessions_[static_cast<std::size_t>(id)].open) {
    throw std::invalid_argument("SurrogateServer::close_session: bad id");
  }
  if (sessions_[static_cast<std::size_t>(id)].busy) {
    throw std::logic_error(
        "SurrogateServer::close_session: a step is still in flight");
  }
  sessions_[static_cast<std::size_t>(id)].open = false;
}

ServerStats SurrogateServer::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  ServerStats out;
  out.requests = requests_;
  out.rejected = rejected_;
  out.batches = batches_;
  out.occupancy = occupancy_;
  return out;
}
// serve-lint: setup-end

StepResult SurrogateServer::step(std::int64_t id, double deadline_ms) {
  static telemetry::Counter& requests_c = telemetry::counter("serve.requests");
  static telemetry::Counter& rejected_c = telemetry::counter("serve.rejected");
  static telemetry::Gauge& depth_g = telemetry::gauge("serve.queue_depth");
  static telemetry::Histogram& latency_h =
      telemetry::histogram("serve.request_seconds");
  requests_c.add();
  util::WallTimer timer;
  // The request node lives on this stack frame: enqueueing links a pointer,
  // so admission itself is allocation-free (lint rule `serve-steady-alloc`).
  Request req;
  req.session = id;
  if (deadline_ms > 0.0) {
    req.deadline_us = telemetry::now_us() +
                      static_cast<std::int64_t>(deadline_ms * 1000.0);
  }
  StepResult result;
  {
    std::unique_lock<std::mutex> lk(mutex_);
    ++requests_;
    Session* session = nullptr;
    if (id >= 0 && id < static_cast<std::int64_t>(sessions_.size()) &&
        sessions_[static_cast<std::size_t>(id)].open) {
      session = &sessions_[static_cast<std::size_t>(id)];
    }
    if (stop_) {
      result.reject = Reject::kShutdown;
    } else if (session == nullptr) {
      result.reject = Reject::kBadSession;
    } else if (session->busy) {
      throw std::logic_error(
          "SurrogateServer::step: one step per session may be in flight");
    } else if (queue_len_ >= options_.queue_depth) {
      // Bounded admission: typed backpressure instead of blocking forever.
      result.reject = Reject::kQueueFull;
    } else {
      session->busy = true;
      req.next = nullptr;
      if (tail_ != nullptr) {
        tail_->next = &req;
      } else {
        head_ = &req;
      }
      tail_ = &req;
      ++queue_len_;
      depth_g.set(static_cast<double>(queue_len_));
      sched_cv_.notify_one();
      done_cv_.wait(lk, [&req] { return req.done; });
      session->busy = false;
      result.reject = req.reject;
      result.step = session->steps;
    }
    if (result.reject != Reject::kNone) ++rejected_;
  }
  result.latency_seconds = timer.seconds();
  latency_h.observe(result.latency_seconds);
  if (result.reject != Reject::kNone) rejected_c.add();
  return result;
}

const float* SurrogateServer::frame(std::int64_t id) const {
  std::lock_guard<std::mutex> lk(mutex_);
  if (id < 0 || id >= static_cast<std::int64_t>(sessions_.size()) ||
      !sessions_[static_cast<std::size_t>(id)].open) {
    throw std::invalid_argument("SurrogateServer::frame: bad id");
  }
  return sessions_[static_cast<std::size_t>(id)].frame.data();
}

std::int64_t SurrogateServer::session_steps(std::int64_t id) const {
  std::lock_guard<std::mutex> lk(mutex_);
  if (id < 0 || id >= static_cast<std::int64_t>(sessions_.size()) ||
      !sessions_[static_cast<std::size_t>(id)].open) {
    throw std::invalid_argument("SurrogateServer::session_steps: bad id");
  }
  return sessions_[static_cast<std::size_t>(id)].steps;
}

void SurrogateServer::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stop_ && !scheduler_.joinable()) return;
    stop_ = true;
  }
  sched_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
}

void SurrogateServer::scheduler_loop() {
  static telemetry::Gauge& depth_g = telemetry::gauge("serve.queue_depth");
  static telemetry::Histogram& coalesce_h =
      telemetry::histogram("serve.coalesce_seconds");
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    sched_cv_.wait(lk, [this] { return stop_ || head_ != nullptr; });
    if (stop_) break;
    const std::int64_t want = options_.coalesce ? options_.max_batch : 1;
    if (options_.coalesce && options_.coalesce_window_ms > 0.0 &&
        queue_len_ < want) {
      // Hold the dispatch briefly so concurrent sessions can join the batch;
      // the window is the knob trading per-request latency for occupancy.
      util::WallTimer window;
      sched_cv_.wait_for(
          lk,
          std::chrono::duration<double, std::milli>(
              options_.coalesce_window_ms),
          [this, want] { return stop_ || queue_len_ >= want; });
      coalesce_h.observe(window.seconds());
      if (stop_) break;
    }
    std::int64_t count = 0;
    while (count < want && head_ != nullptr) {
      Request* r = head_;
      head_ = r->next;
      if (head_ == nullptr) tail_ = nullptr;
      --queue_len_;
      batch_[static_cast<std::size_t>(count++)] = r;
    }
    depth_g.set(static_cast<double>(queue_len_));
    lk.unlock();
    execute_batch(count);
    lk.lock();
    for (std::int64_t i = 0; i < count; ++i) {
      batch_[static_cast<std::size_t>(i)]->done = true;
    }
    done_cv_.notify_all();
  }
  // Shutdown drain: every still-queued request completes with kShutdown so
  // no client blocks past the server's lifetime.
  while (head_ != nullptr) {
    Request* r = head_;
    head_ = r->next;
    r->reject = Reject::kShutdown;
    r->done = true;
  }
  tail_ = nullptr;
  queue_len_ = 0;
  depth_g.set(0.0);
  done_cv_.notify_all();
}

void SurrogateServer::execute_batch(std::int64_t count) {
  static telemetry::Counter& batches_c = telemetry::counter("serve.batches");
  static telemetry::Histogram& occupancy_h = telemetry::histogram(
      "serve.batch_occupancy", std::span<const double>(kOccupancyBounds));
  // Fault hook: PARPDE_FAULT / fault::install delay rules on the
  // serve.dispatch tag slow the dispatch here, deterministically, before the
  // deadline filter — how tests starve queued requests past their deadline.
  // There is no message traffic; only the delay side effect applies.
  if (mpi::fault::enabled()) {
    (void)mpi::fault::on_send(0, 0, mpi::tags::kServe.base);
  }
  const std::int64_t now_us = telemetry::now_us();
  std::int64_t live = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    Request* r = batch_[static_cast<std::size_t>(i)];
    if (r->deadline_us != 0 && now_us > r->deadline_us) {
      r->reject = Reject::kDeadline;
      continue;
    }
    live_[static_cast<std::size_t>(live++)] = r;
  }
  {
    // Batch bookkeeping shares the server mutex with stats().
    std::lock_guard<std::mutex> lk(mutex_);
    ++occupancy_[static_cast<std::size_t>(live)];
    if (live > 0) ++batches_;
  }
  if (live == 0) return;
  batches_c.add();
  occupancy_h.observe(static_cast<double>(live));
  telemetry::Span span("serve.dispatch", "serve");
  const std::int64_t frame_floats = channels_ * height_ * width_;
  // Gather the sessions' frames into one [B, C, H, W] stack, advance the
  // whole batch through a single wide plan pass, scatter the results back.
  // Without coalescing B is 1, and run_batched at batch 1 is the solo plan
  // pass bit for bit.
  for (std::int64_t i = 0; i < live; ++i) {
    const Session& s = sessions_[static_cast<std::size_t>(
        live_[static_cast<std::size_t>(i)]->session)];
    std::memcpy(staging_.data() + i * frame_floats, s.frame.data(),
                static_cast<std::size_t>(frame_floats) * sizeof(float));
  }
  const nn::ForwardPlan::Output out =
      plan_.run_batched(staging_.data(), live, height_, width_);
  for (std::int64_t i = 0; i < live; ++i) {
    Session& s = sessions_[static_cast<std::size_t>(
        live_[static_cast<std::size_t>(i)]->session)];
    std::memcpy(s.frame.data(), out.data + i * frame_floats,
                static_cast<std::size_t>(frame_floats) * sizeof(float));
    ++s.steps;
  }
}

}  // namespace parpde::serve
