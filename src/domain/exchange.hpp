#pragma once

// Parallel field plumbing for inference (Sec. III): point-to-point halo
// exchange between neighbouring subdomains ("each processor sends the
// boundary data to the corresponding neighbor ... no central instance is
// used"), plus gather/scatter of full fields for validation and I/O.
//
// The halo exchange is fault-aware: receives are bounded (timeout + retry,
// never an unbounded wait — lint rule `unbounded-halo-recv`), and a border
// whose neighbour is definitively lost (retry budget exhausted, or a
// CRC-corrupt strip consumed) is *degraded*: its halo stays zero from then
// on, which is exactly the paper's zero-padding border treatment, so the
// rollout keeps producing frames instead of hanging. Degradations are sticky
// per border, recorded in BorderHealth, and counted in the
// `inference.degraded_borders` telemetry counter. See docs/robustness.md.

#include <array>
#include <chrono>
#include <string>

#include "domain/partition.hpp"
#include "minimpi/cart.hpp"
#include "tensor/tensor.hpp"
#include "util/timer.hpp"

namespace parpde::domain {

// Patience knobs for the bounded halo receive. Attempts back off
// exponentially: the first waits `recv_timeout`, each miss doubles the wait
// up to `max_recv_timeout`, and the border degrades once `max_retries`
// attempts or the cumulative `recv_budget` is exhausted — whichever comes
// first. The defaults give each border ~10 s of total patience per step
// (reached after ~7 attempts instead of 40 fixed-interval ones, so a dead
// neighbour costs far fewer wakeups) — generous enough that a fault-free
// run never degrades even under sanitizers, tight enough that a genuinely
// dead neighbour cannot stall a rollout forever. Chaos tests shrink these.
// Timeouts are receive-side only: fault-injection draws happen on the send
// side, so tuning patience never perturbs a seeded fault sequence.
struct HaloOptions {
  std::chrono::milliseconds recv_timeout{250};       // first receive attempt
  std::chrono::milliseconds max_recv_timeout{2000};  // backoff cap
  std::chrono::milliseconds recv_budget{10000};      // cumulative wall clock
  int max_retries = 40;  // attempts beyond the first
  // Health monitor: gauge the interface residual (seam mismatch) of every
  // received strip into BorderHealth. O(border length) per strip — cheap
  // next to the O(area) forward pass; off only for overhead benchmarking.
  bool probe_residuals = true;
};

// Sticky per-border degradation state of one rank, carried across rollout
// steps. A degraded border is never sent to or received from again; its halo
// strip stays zero (the paper's zero-padding treatment).
class BorderHealth {
 public:
  [[nodiscard]] bool degraded(mpi::Direction d) const {
    return degraded_[static_cast<std::size_t>(d)];
  }
  void mark_degraded(mpi::Direction d) {
    degraded_[static_cast<std::size_t>(d)] = true;
  }
  [[nodiscard]] bool any() const {
    for (const bool b : degraded_) {
      if (b) return true;
    }
    return false;
  }
  [[nodiscard]] int count() const {
    int n = 0;
    for (const bool b : degraded_) n += b ? 1 : 0;
    return n;
  }
  // Compact label of the degraded borders, e.g. "E,N" ("" when healthy).
  [[nodiscard]] std::string describe() const;

  // Recovery hook (elastic runtime only): after the failed neighbour's tasks
  // have been adopted and their halo channels re-pointed, the degradation is
  // no longer sticky — the border is healthy again. Residual history is kept.
  void reset() { degraded_ = {}; }

  // Health-monitor hook: records the interface residual of one received
  // strip (mean |received − adjacent interior line|). A residual that grows
  // across steps means the neighbouring subdomain's surrogate is diverging
  // from this one at the seam — the paper's stitching-error failure mode.
  void observe_residual(double r) {
    if (r > max_residual_) max_residual_ = r;
  }
  [[nodiscard]] double max_residual() const noexcept { return max_residual_; }

 private:
  std::array<bool, 4> degraded_{};  // indexed by mpi::Direction
  double max_residual_ = 0.0;
};

// Split halo exchange with persistent staging buffers, the exchange half of
// every parallel_rollout step (docs/performance.md, "The rollout step"):
//
//   HaloExchange hx(cart, partition, halo, options, &health);
//   for (step ...) {
//     hx.begin(interior);            // posts W/E border strips (buffered
//                                    //  sends — returns immediately)
//     hx.finish(interior, padded);   // bounded receives + S/N corner phase
//     ... one ForwardPlan::run on the whole padded tile ...
//   }
//
// begin() posts this rank's west/east strips the moment the step's interior
// exists; finish() completes the two-phase exchange (receive W/E, then
// send/receive the x-extended S/N strips so diagonal corners are correct)
// and writes the [C, bh + 2 halo, bw + 2 halo] result into `padded` (resized
// on first use, reused afterwards — the steady state allocates nothing
// beyond the minimpi mailbox copies). exchange_halo below is begin() +
// finish() back to back, so both send the same message sequence per
// neighbour channel: seeded fault injection draws the same faults on either
// and degradation outcomes are bit-reproducible.
//
// Receive semantics match exchange_halo: bounded by `options`, CRC-checked,
// degrading the border into `health` (or throwing when health is null).
// begin()/finish() must alternate; the referenced cart/partition/health must
// outlive the object.
class HaloExchange {
 public:
  HaloExchange(mpi::CartComm& cart, const Partition& partition,
               std::int64_t halo, const HaloOptions& options = {},
               BorderHealth* health = nullptr);

  // Posts the west/east strips of `interior` ([C, bh, bw]) to the live
  // neighbours. Wall time spent sending accumulates into `comm_time`.
  void begin(const Tensor& interior,
             util::AccumulatingTimer* comm_time = nullptr);

  // Completes the exchange begun with the same `interior` and assembles the
  // halo-padded tensor into `padded`. Wall time spent in receives/sends
  // accumulates into `comm_time` (the rollout step's "wait" share).
  void finish(const Tensor& interior, Tensor& padded,
              util::AccumulatingTimer* comm_time = nullptr);

  [[nodiscard]] std::int64_t halo() const noexcept { return halo_; }

 private:
  void timed_send(mpi::Direction side, const std::vector<float>& strip,
                  util::AccumulatingTimer* comm_time);
  bool robust_recv(mpi::Direction side, util::AccumulatingTimer* comm_time);
  void drain_stale(mpi::Direction side);
  void degrade(mpi::Direction side, const std::string& why);
  [[nodiscard]] bool live(mpi::Direction side) const;

  mpi::CartComm& cart_;
  const Partition& partition_;
  std::int64_t halo_;
  HaloOptions options_;
  BorderHealth* health_;

  Tensor ext_x_;                   // [C, bh, bw + 2 halo] phase-1 staging
  std::vector<float> send_strip_;  // packed outgoing strip (reused)
  std::vector<float> recv_strip_;  // packed incoming strip (reused)
  std::uint64_t bytes_before_ = 0;
  double begin_seconds_ = 0.0;
  bool in_flight_ = false;
};

// Surrounds this rank's interior [C, bh, bw] with a halo of width `halo`
// filled from the four neighbours (two-phase exchange, so diagonal corners
// are correct). Physical-boundary halo stays zero. Returns
// [C, bh + 2 halo, bw + 2 halo]. If `comm_time` is non-null, the wall time
// spent in sends/receives is accumulated into it.
//
// Serialized convenience wrapper over HaloExchange::begin + finish; receives
// are bounded by `options`. When a border's retry budget is exhausted (or
// its strip arrives CRC-corrupt), the border is degraded: with `health`
// non-null the degradation is recorded there and the exchange continues with
// a zero halo on that side; with `health` null (callers that have no
// degradation story, e.g. benchmarks) the exchange throws instead — either
// way it never hangs.
Tensor exchange_halo(mpi::CartComm& cart, const Partition& partition,
                     const Tensor& interior, std::int64_t halo,
                     util::AccumulatingTimer* comm_time = nullptr,
                     const HaloOptions& options = {},
                     BorderHealth* health = nullptr);

// Collects per-rank interiors into the full [C, H, W] field on rank 0
// (other ranks get an empty tensor).
Tensor gather_field(mpi::CartComm& cart, const Partition& partition,
                    const Tensor& interior);

// Split gather for the deferred/double-buffered recording path: non-root
// ranks post their interior toward rank 0 (buffered send — returns
// immediately) and move on to the next step; rank 0 stages a copy of its own
// interior and collects the posted blocks later. Per-channel FIFO ordering of
// the mailbox keeps successive deferred gathers matched in step order.
void gather_field_send(mpi::CartComm& cart, const Tensor& interior);

// Rank 0 only (no-op elsewhere): receives every non-root block posted by the
// matching gather_field_send round and assembles the full field into `full`
// (resized on first use, reused afterwards). `root_interior` supplies rank
// 0's own block, typically the copy staged when the round was posted.
void gather_field_collect(mpi::CartComm& cart, const Partition& partition,
                          const Tensor& root_interior, Tensor& full);

// Rank 0 distributes a full [C, H, W] field; every rank returns its interior
// block [C, bh, bw]. On non-root ranks `full` is ignored.
Tensor scatter_field(mpi::CartComm& cart, const Partition& partition,
                     const Tensor& full);

}  // namespace parpde::domain
