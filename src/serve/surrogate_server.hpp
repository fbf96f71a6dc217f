#pragma once

// SurrogateServer — long-lived multi-session inference service over the
// trained (or synthetic) Table-I surrogate, the serving layer the ROADMAP's
// "heavy traffic" north star asks for. The shape follows the onnxruntime
// session/runner split: one long-lived engine (the pre-sized ForwardPlan and
// its backend PlanContext), per-request state kept tiny (a stack-allocated
// intrusive queue node), and a pooled scheduler thread in between.
//
// Request flow: a client calls step(id), which enqueues a node on the bounded
// admission queue and blocks. When the queue is full the call returns a typed
// Reject::kQueueFull immediately — backpressure, never an unbounded block.
// The scheduler thread pops up to max_batch requests (waiting at most
// coalesce_window_ms for the batch to fill), stacks the sessions' frames into
// one [B, C, H, W] staging buffer and advances all of them with a single
// ForwardPlan::run_batched call — one conv call per layer over the whole
// batch instead of B single-sample ones. With coalesce = false the
// scheduler dispatches one request at a time with no coalesce window, a
// batch of one (the serial baseline, `parpde_cli serve --serial`).
//
// Determinism contract (docs/serving.md): a session's trajectory is
// bit-identical whether it ran solo or coalesced into any batch, on both the
// fp32 and int8 backends — the blocked GEMM's per-element k-reduction order
// is independent of the matrix width, the int8 accumulation is exact, and
// every epilogue is elementwise. tests/test_serve.cpp proves this end to end
// at random batch compositions.
//
// Steady state performs zero heap allocations per request on every path the
// scheduler or step() touches (lint rule `serve-steady-alloc` plus the
// counting-allocator check in tests/test_serve.cpp). All buffers are sized at
// construction; sessions are slots in a pre-reserved table.
//
// Threading: step() may be called from any number of client threads; a single
// session must not have two steps in flight at once (enforced —
// std::logic_error). Frames are handed between client and scheduler through
// the server mutex, so the TSan leg of tools/check.sh runs test_serve.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "nn/forward_plan.hpp"
#include "nn/sequential.hpp"
#include "util/aligned.hpp"

namespace parpde::serve {

struct ServerOptions {
  // Execution provider for all sessions (nullptr = reference fp32).
  const backend::KernelBackend* backend = nullptr;
  // Widest batch one dispatch may coalesce; also pre-sizes the plan.
  std::int64_t max_batch = 8;
  // Admission-queue bound: step() returns Reject::kQueueFull beyond it.
  std::int64_t queue_depth = 64;
  // Session-table capacity (slots are pre-reserved at construction).
  std::int64_t max_sessions = 64;
  // How long the scheduler waits for a batch to fill once work is pending.
  // 0 = dispatch whatever is queued immediately.
  double coalesce_window_ms = 0.2;
  // false = serial dispatch: one request per dispatch, no coalesce window.
  // The baseline; coalescing is the whole point otherwise.
  bool coalesce = true;
};

// Typed admission verdicts — the server never blocks a request forever.
enum class Reject {
  kNone,        // executed
  kQueueFull,   // bounded admission queue at capacity (backpressure)
  kDeadline,    // still queued when the request's deadline passed
  kShutdown,    // server stopping; request was not executed
  kBadSession,  // unknown or closed session id
};
[[nodiscard]] const char* reject_name(Reject r) noexcept;

struct StepResult {
  Reject reject = Reject::kNone;
  std::int64_t step = 0;           // session step count after this request
  double latency_seconds = 0.0;    // enqueue-to-completion wall time
  [[nodiscard]] bool ok() const noexcept { return reject == Reject::kNone; }
};

// Snapshot for benches/CLI; the telemetry registry carries the same figures
// as serve.* metrics (docs/observability.md).
struct ServerStats {
  std::uint64_t requests = 0;  // step() calls admitted or rejected
  std::uint64_t rejected = 0;  // non-kNone outcomes
  std::uint64_t batches = 0;   // dispatches that executed >= 1 request
  // occupancy[b] = dispatches that executed exactly b requests (index 0
  // counts dispatches whose every request was deadline-rejected).
  std::vector<std::uint64_t> occupancy;
};

class SurrogateServer {
 public:
  // The model must be a Sequential ForwardPlan can replay on
  // options.backend, with zero spatial shrink (BorderMode::kZeroPad, or the
  // deconv-mode net on fp32): sessions are autoregressive on a fixed
  // [channels, height, width] geometry. The model must outlive the server.
  // Throws std::invalid_argument otherwise.
  SurrogateServer(nn::Sequential& model, std::int64_t channels,
                  std::int64_t height, std::int64_t width,
                  const ServerOptions& options = {});
  ~SurrogateServer();

  SurrogateServer(const SurrogateServer&) = delete;
  SurrogateServer& operator=(const SurrogateServer&) = delete;

  // --- calibration (int8 backend; see ForwardPlan) --------------------------
  [[nodiscard]] bool needs_calibration() const;
  // One fp32 reference pass over a representative frame [channels, h, w].
  void calibrate(const float* frame);
  void set_calibration(std::vector<float> ranges);
  [[nodiscard]] const std::vector<float>& calibration() const noexcept {
    return plan_.calibration();
  }

  // --- sessions -------------------------------------------------------------
  // Copies the initial condition [channels, height, width] into a fresh
  // session slot; returns its id, or -1 when max_sessions are already open.
  [[nodiscard]] std::int64_t open_session(const float* initial);
  // Frees the slot for reuse. The session must have no step in flight.
  void close_session(std::int64_t id);

  // Advances the session one autoregressive step (blocking). deadline_ms > 0
  // rejects the request with Reject::kDeadline if it is still queued when
  // that much time has passed since enqueue. At most one step per session
  // may be in flight (std::logic_error otherwise).
  StepResult step(std::int64_t id, double deadline_ms = 0.0);

  // The session's current frame [channels, height, width]; valid until the
  // session's next step() (the caller must not read concurrently with one).
  [[nodiscard]] const float* frame(std::int64_t id) const;
  [[nodiscard]] std::int64_t session_steps(std::int64_t id) const;

  // --- introspection --------------------------------------------------------
  [[nodiscard]] std::int64_t channels() const noexcept { return channels_; }
  [[nodiscard]] std::int64_t height() const noexcept { return height_; }
  [[nodiscard]] std::int64_t width() const noexcept { return width_; }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] ServerStats stats() const;
  // Plan + backend workspace regrowths (0 in a pre-sized steady state).
  [[nodiscard]] std::uint64_t growth_events() const noexcept {
    return plan_.growth_events();
  }

  // Stops the scheduler: pending and future requests get Reject::kShutdown.
  // Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Session {
    util::AlignedVector<float> frame;  // [channels, height, width]
    std::int64_t steps = 0;
    bool open = false;
    bool busy = false;  // a step() is in flight
  };

  // One queued step request. Lives on the calling thread's stack for the
  // duration of step() — enqueueing is pointer-linking, never an allocation.
  struct Request {
    std::int64_t session = -1;
    std::int64_t deadline_us = 0;  // absolute telemetry::now_us(); 0 = none
    Reject reject = Reject::kNone;
    bool done = false;
    Request* next = nullptr;
  };

  void scheduler_loop();
  // Pops `count` requests from batch_[0..count); deadline-filters, applies
  // the serve.dispatch fault hook, and runs the survivors as one batch.
  void execute_batch(std::int64_t count);

  ServerOptions options_;
  std::int64_t channels_ = 0;
  std::int64_t height_ = 0;
  std::int64_t width_ = 0;
  nn::ForwardPlan plan_;

  mutable std::mutex mutex_;
  std::condition_variable sched_cv_;  // scheduler wakeups (work / stop)
  std::condition_variable done_cv_;   // client wakeups (request completed)
  Request* head_ = nullptr;  // intrusive FIFO admission queue
  Request* tail_ = nullptr;
  std::int64_t queue_len_ = 0;
  bool stop_ = false;

  std::vector<Session> sessions_;        // pre-reserved, never reallocates
  std::vector<Request*> batch_;          // scheduler scratch [max_batch]
  std::vector<Request*> live_;           // deadline survivors [max_batch]
  util::AlignedVector<float> staging_;   // [max_batch, channels, h, w]
  std::vector<std::uint64_t> occupancy_; // [max_batch + 1]
  std::uint64_t requests_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t batches_ = 0;

  std::thread scheduler_;
};

}  // namespace parpde::serve
