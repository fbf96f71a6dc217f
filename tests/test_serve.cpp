// SurrogateServer (ISSUE 10): cross-session GEMM batching must be invisible
// to every individual session. A session's trajectory has to be byte-identical
// whether it ran solo through ForwardPlan::run or was coalesced into a batch
// of any composition, on both the fp32 and int8 backends and under both
// dispatch engines (coalesced and the serial baseline). On top of the
// determinism contract: the steady-state request path performs zero heap
// allocations (real counts, tests/alloc_counter.hpp), and
// admission is bounded — a full queue returns Reject::kQueueFull immediately
// and a queued request whose deadline lapses under fault::install delay rules
// returns Reject::kDeadline instead of blocking forever.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <latch>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "backend/kernel_backend.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/tags.hpp"
#include "nn/forward_plan.hpp"
#include "serve/surrogate_server.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace parpde::serve {
namespace {

constexpr std::int64_t kC = 4;
constexpr std::int64_t kH = 24;
constexpr std::int64_t kW = 20;
constexpr std::int64_t kFrame = kC * kH * kW;

// Serving needs a "same"-padded net (zero spatial shrink) so sessions stay on
// a fixed geometry. Table-I weights damped toward a contractive map (the
// test_quant_rollout idiom) keep the autoregressive trajectories bounded;
// loading through core::rebuild_model exercises the same path the CLI `serve`
// command and the serve benchmark workload use.
core::TrainConfig serve_config() {
  core::TrainConfig cfg;
  cfg.border = core::BorderMode::kZeroPad;
  return cfg;
}

std::unique_ptr<nn::Sequential> damped_model(const core::TrainConfig& cfg) {
  util::Rng rng(cfg.seed);
  const auto raw = core::build_model(cfg.network, cfg.border, rng);
  auto params = core::export_parameters(*raw);
  util::Rng weight_rng(1234);
  for (auto& t : params) {
    if (t.ndim() == 1) {
      weight_rng.fill_uniform(t.values(), -0.3f, 0.3f);  // conv bias
    } else {
      for (std::int64_t i = 0; i < t.size(); ++i) t[i] *= 0.5f;
    }
  }
  return core::rebuild_model(cfg, params);
}

std::vector<Tensor> session_initials(int sessions) {
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    Tensor ic({kC, kH, kW});
    util::Rng rng(100 + static_cast<std::uint64_t>(s));
    rng.fill_uniform(ic.values(), 0.5f, 1.5f);
    out.push_back(std::move(ic));
  }
  return out;
}

// Ground truth: each session advanced alone through the solo ForwardPlan::run
// path. Returns trajectories[s][t] = frame bytes after step t+1.
std::vector<std::vector<std::vector<float>>> solo_trajectories(
    nn::ForwardPlan& plan, const std::vector<Tensor>& initials, int steps) {
  std::vector<std::vector<std::vector<float>>> out(initials.size());
  for (std::size_t s = 0; s < initials.size(); ++s) {
    std::vector<float> frame(initials[s].data(),
                             initials[s].data() + kFrame);
    for (int t = 0; t < steps; ++t) {
      const nn::ForwardPlan::Output o = plan.run(frame.data(), kH, kW);
      EXPECT_EQ(o.size(), kFrame);
      std::memcpy(frame.data(), o.data,
                  static_cast<std::size_t>(kFrame) * sizeof(float));
      out[s].push_back(frame);
    }
  }
  return out;
}

// N concurrent client threads step their sessions with jittered pacing so the
// scheduler sees ever-changing batch compositions (1..max_batch, any mix of
// sessions); every recorded frame must match the solo ground truth bit for
// bit.
void expect_server_matches_solo(const backend::KernelBackend* bk,
                                bool coalesce) {
  const core::TrainConfig cfg = serve_config();
  const auto model = damped_model(cfg);
  const int kSessions = 6;
  const int kSteps = 8;
  const auto initials = session_initials(kSessions);

  nn::ForwardPlan solo(*model, kC, kH, kW, bk);
  if (solo.needs_calibration()) solo.calibrate(initials[0].data(), kH, kW);
  const auto expected = solo_trajectories(solo, initials, kSteps);

  ServerOptions opt;
  opt.backend = bk;
  opt.max_batch = 4;
  opt.coalesce = coalesce;
  opt.coalesce_window_ms = 0.5;
  SurrogateServer server(*model, kC, kH, kW, opt);
  // Int8 solo and server share one set of calibrated activation ranges — the
  // serialized-model path; differing ranges would be a config difference, not
  // a batching nondeterminism.
  if (server.needs_calibration()) server.set_calibration(solo.calibration());

  std::vector<std::int64_t> ids(static_cast<std::size_t>(kSessions));
  for (int s = 0; s < kSessions; ++s) {
    ids[static_cast<std::size_t>(s)] = server.open_session(initials[s].data());
    ASSERT_GE(ids[static_cast<std::size_t>(s)], 0);
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      std::mt19937 jitter(static_cast<unsigned>(7 * s + 1));
      std::uniform_int_distribution<int> pause_us(0, 400);
      const std::int64_t id = ids[static_cast<std::size_t>(s)];
      for (int t = 0; t < kSteps; ++t) {
        const StepResult r = server.step(id);
        if (!r.ok() || r.step != t + 1) {
          failures.fetch_add(1);
          return;
        }
        const auto& want = expected[static_cast<std::size_t>(s)]
                                   [static_cast<std::size_t>(t)];
        if (std::memcmp(server.frame(id), want.data(),
                        static_cast<std::size_t>(kFrame) * sizeof(float)) !=
            0) {
          mismatches.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(pause_us(jitter)));
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "a coalesced step diverged from the solo trajectory";

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kSessions * kSteps));
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.batches, 0u);
  std::uint64_t executed = 0;
  for (std::size_t b = 0; b < stats.occupancy.size(); ++b) {
    executed += stats.occupancy[b] * static_cast<std::uint64_t>(b);
  }
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kSessions * kSteps));
  for (int s = 0; s < kSessions; ++s) {
    server.close_session(ids[static_cast<std::size_t>(s)]);
  }
}

TEST(Serve, CoalescedBitIdenticalToSoloFp32) {
  expect_server_matches_solo(&backend::blocked_f32(), /*coalesce=*/true);
}

TEST(Serve, SerialDispatchBitIdenticalToSoloFp32) {
  expect_server_matches_solo(&backend::blocked_f32(), /*coalesce=*/false);
}

TEST(Serve, CoalescedBitIdenticalToSoloInt8) {
  expect_server_matches_solo(&backend::quantized_int8(), /*coalesce=*/true);
}

TEST(Serve, SerialDispatchBitIdenticalToSoloInt8) {
  expect_server_matches_solo(&backend::quantized_int8(), /*coalesce=*/false);
}

TEST(Serve, CoalescedBitIdenticalWithPooledWorkers) {
  // The wide GEMM parallelises over the thread pool; worker count must not
  // change a single byte (the kernels' reduction order is width- and
  // worker-independent).
  util::ThreadPool::configure_global(3);
  expect_server_matches_solo(&backend::blocked_f32(), /*coalesce=*/true);
  util::ThreadPool::configure_global(0);
}

TEST(Serve, ConcurrentSessionsActuallyCoalesce) {
  // Eight sessions released together through a latch, max_batch = 8 and a
  // 20 ms coalesce window: some dispatch must carry >= 2 requests, the mean
  // batch must exceed 1, and nothing may be rejected.
  const core::TrainConfig cfg = serve_config();
  const auto model = damped_model(cfg);
  const int kSessions = 8;
  const int kSteps = 4;
  const auto initials = session_initials(kSessions);

  ServerOptions opt;
  opt.max_batch = 8;
  opt.coalesce = true;
  opt.coalesce_window_ms = 20.0;
  SurrogateServer server(*model, kC, kH, kW, opt);
  std::vector<std::int64_t> ids;
  for (const Tensor& ic : initials) ids.push_back(server.open_session(ic.data()));

  std::latch start(kSessions);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      start.arrive_and_wait();
      for (int t = 0; t < kSteps; ++t) {
        if (!server.step(ids[static_cast<std::size_t>(s)]).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(failures.load(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kSessions * kSteps));
  EXPECT_EQ(stats.rejected, 0u);
  std::uint64_t coalesced = 0;
  for (std::size_t b = 2; b < stats.occupancy.size(); ++b) {
    coalesced += stats.occupancy[b];
  }
  EXPECT_GT(coalesced, 0u) << "no dispatch carried two or more requests";
  ASSERT_GT(stats.batches, 0u);
  EXPECT_GT(static_cast<double>(stats.requests - stats.rejected) /
                static_cast<double>(stats.batches),
            1.0);
}

TEST(Serve, SteadyStateAllocationFree) {
  // After warm-up (telemetry statics, first-dispatch scratch) a request must
  // ride through step() -> scheduler -> run_batched -> completion without a
  // single heap allocation on either side of the handoff, on either backend.
  const core::TrainConfig cfg = serve_config();
  const auto model = damped_model(cfg);
  Tensor ic({kC, kH, kW});
  util::Rng rng(11);
  rng.fill_uniform(ic.values(), 0.5f, 1.5f);
  for (const backend::KernelBackend* bk :
       {&backend::blocked_f32(), &backend::quantized_int8()}) {
    SCOPED_TRACE(bk->name());
    ServerOptions opt;
    opt.backend = bk;
    opt.max_batch = 2;
    opt.coalesce = true;
    opt.coalesce_window_ms = 0.0;  // dispatch immediately; batch of 1 is fine
    SurrogateServer server(*model, kC, kH, kW, opt);
    if (server.needs_calibration()) server.calibrate(ic.data());
    const std::int64_t id = server.open_session(ic.data());
    ASSERT_GE(id, 0);

    for (int t = 0; t < 4; ++t) ASSERT_TRUE(server.step(id).ok());

    parpde::testing::AllocCounter allocs;
    for (int t = 0; t < 16; ++t) {
      const StepResult r = server.step(id);
      ASSERT_TRUE(r.ok());
    }
    EXPECT_EQ(allocs.count(), 0);
  }
}

// The server's plan evaluates every batch composition the scheduler can
// form, 1..max_batch samples, from the buffers its constructor sized: none of
// them allocates, on either backend.
TEST(Serve, BatchedPlanAllocatesNothingUpToMaxBatch) {
  const core::TrainConfig cfg = serve_config();
  const auto model = damped_model(cfg);
  constexpr std::int64_t kMaxBatch = 4;
  const auto initials = session_initials(static_cast<int>(kMaxBatch));
  std::vector<float> stacked;
  for (const Tensor& ic : initials) {
    stacked.insert(stacked.end(), ic.data(), ic.data() + kFrame);
  }
  for (const backend::KernelBackend* bk :
       {&backend::blocked_f32(), &backend::quantized_int8()}) {
    SCOPED_TRACE(bk->name());
    nn::ForwardPlan plan(*model, kC, kH, kW, bk, kMaxBatch);
    if (plan.needs_calibration()) plan.calibrate(initials[0].data(), kH, kW);
    (void)plan.run_batched(stacked.data(), 1, kH, kW);  // first-call statics
    parpde::testing::AllocCounter allocs;
    for (std::int64_t batch = kMaxBatch; batch >= 1; --batch) {
      (void)plan.run_batched(stacked.data(), batch, kH, kW);
    }
    EXPECT_EQ(allocs.count(), 0);
  }
}

mpi::fault::Rule delay_dispatch(int ms) {
  mpi::fault::Rule rule;
  rule.action = mpi::fault::Action::kDelay;
  rule.tag_lo = mpi::tags::kServe.base;
  rule.tag_hi = mpi::tags::kServe.base;
  rule.delay_ms = ms;
  return rule;
}

TEST(Serve, QueueFullAndDeadlineAreTypedRejections) {
  // A fault::install delay rule on the serve.dispatch tag pins the scheduler
  // inside a dispatch. While it is pinned: the bounded queue (depth 1) turns
  // the next arrival into an immediate kQueueFull, and a queued request whose
  // deadline lapses before its dispatch comes back as kDeadline — nobody
  // blocks forever.
  const core::TrainConfig cfg = serve_config();
  const auto model = damped_model(cfg);
  ServerOptions opt;
  opt.coalesce = false;  // one request per dispatch: deterministic ordering
  opt.queue_depth = 1;
  SurrogateServer server(*model, kC, kH, kW, opt);

  Tensor ic({kC, kH, kW});
  util::Rng rng(5);
  rng.fill_uniform(ic.values(), 0.5f, 1.5f);
  const std::int64_t s0 = server.open_session(ic.data());
  const std::int64_t s1 = server.open_session(ic.data());
  const std::int64_t s2 = server.open_session(ic.data());
  ASSERT_GE(s2, 0);

  mpi::fault::install(mpi::fault::FaultPlan(3).add_rule(delay_dispatch(400)));

  StepResult r0, r1;
  std::thread t0([&] { r0 = server.step(s0); });
  // Give the scheduler time to pop s0 and park inside the delayed dispatch.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread t1([&] { r1 = server.step(s1, /*deadline_ms=*/150.0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // s1 occupies the depth-1 queue while s0 holds the scheduler: typed
  // backpressure, returned immediately rather than blocking.
  const StepResult r2 = server.step(s2);
  EXPECT_EQ(r2.reject, Reject::kQueueFull);
  EXPECT_STREQ(reject_name(r2.reject), "queue_full");
  EXPECT_LT(r2.latency_seconds, 0.05);

  t0.join();
  t1.join();
  mpi::fault::uninstall();

  EXPECT_TRUE(r0.ok());
  EXPECT_EQ(r0.step, 1);
  // s1 was only dispatched after s0's ~400 ms delay — far past its 150 ms
  // deadline — so the dispatch-side filter rejected it without running it.
  EXPECT_EQ(r1.reject, Reject::kDeadline);
  EXPECT_EQ(server.session_steps(s1), 0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.rejected, 2u);
  ASSERT_FALSE(stats.occupancy.empty());
  // s1's dispatch executed nobody: an all-deadline batch lands in bucket 0.
  EXPECT_GE(stats.occupancy[0], 1u);
}

TEST(Serve, OneStepPerSessionEnforced) {
  const core::TrainConfig cfg = serve_config();
  const auto model = damped_model(cfg);
  ServerOptions opt;
  opt.coalesce = false;
  SurrogateServer server(*model, kC, kH, kW, opt);

  Tensor ic({kC, kH, kW});
  util::Rng rng(6);
  rng.fill_uniform(ic.values(), 0.5f, 1.5f);
  const std::int64_t id = server.open_session(ic.data());

  mpi::fault::install(mpi::fault::FaultPlan(3).add_rule(delay_dispatch(300)));
  std::thread t0([&] { (void)server.step(id); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The first step is still in flight (busy from enqueue to completion):
  // a concurrent second step on the same session is a caller bug, not a
  // queueing situation.
  EXPECT_THROW((void)server.step(id), std::logic_error);
  t0.join();
  mpi::fault::uninstall();
}

TEST(Serve, SessionTableAndShutdownVerdicts) {
  const core::TrainConfig cfg = serve_config();
  const auto model = damped_model(cfg);
  ServerOptions opt;
  opt.max_sessions = 1;
  SurrogateServer server(*model, kC, kH, kW, opt);

  Tensor ic({kC, kH, kW});
  util::Rng rng(8);
  rng.fill_uniform(ic.values(), 0.5f, 1.5f);

  EXPECT_EQ(server.step(0).reject, Reject::kBadSession);  // nothing open yet
  const std::int64_t id = server.open_session(ic.data());
  ASSERT_EQ(id, 0);
  EXPECT_EQ(server.open_session(ic.data()), -1);  // table full
  EXPECT_EQ(server.step(99).reject, Reject::kBadSession);
  EXPECT_TRUE(server.step(id).ok());
  EXPECT_EQ(server.session_steps(id), 1);

  server.close_session(id);
  EXPECT_EQ(server.step(id).reject, Reject::kBadSession);
  EXPECT_THROW(server.close_session(id), std::invalid_argument);

  const std::int64_t id2 = server.open_session(ic.data());  // slot reused
  ASSERT_EQ(id2, 0);
  EXPECT_EQ(server.session_steps(id2), 0);  // fresh session, fresh counter

  server.shutdown();
  EXPECT_EQ(server.step(id2).reject, Reject::kShutdown);
  EXPECT_EQ(server.open_session(ic.data()), -1);
  server.shutdown();  // idempotent
}

TEST(Serve, RejectsIncompatibleModels) {
  // kHaloPad border builds a valid-conv (shrinking) net: autoregressive
  // serving on a fixed geometry is impossible and must be refused up front.
  core::TrainConfig cfg = serve_config();
  cfg.border = core::BorderMode::kHaloPad;
  util::Rng rng(cfg.seed);
  const auto shrinking = core::build_model(cfg.network, cfg.border, rng);
  EXPECT_THROW(SurrogateServer(*shrinking, kC, kH, kW), std::invalid_argument);
}

}  // namespace
}  // namespace parpde::serve
