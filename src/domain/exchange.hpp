#pragma once

// Parallel field plumbing for inference (Sec. III): point-to-point halo
// exchange between neighbouring subdomains ("each processor sends the
// boundary data to the corresponding neighbor ... no central instance is
// used"), plus the gather of full fields to rank 0 for validation and I/O.
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
#include <vector>

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
// every parallel_rollout step (docs/performance.md, "The rollout step"). It
// exchanges every subdomain tile a rank hosts:
//
//   HaloExchange hx(comm, partition, halo, options, task_tags);
//   hx.place(tiles, owner);   // the tiles hosted here; who hosts the rest
//   for (step ...) {
//     hx.begin();             // posts W/E border strips of every tile
//                             //  (buffered sends — returns immediately)
//     hx.finish();            // bounded receives + S/N corner phase
//     ... one ForwardPlan::run per tile on its padded input ...
//   }
//
// begin() posts the west/east strips of every tile the moment the step's
// interiors exist; finish() receives phase 1 for every tile, then sends the
// x-extended S/N strips of every tile, and only then receives phase 2 for
// every tile, so diagonal corners arrive via the row neighbours. That order
// is required: finishing one tile at a time deadlocks as soon as a tile's
// N/S neighbour sits on the same rank. The peer of each border is the rank
// hosting the neighbouring tile; a co-resident neighbour is an ordinary send
// to this rank itself. Each tile's [C, bh + 2 halo, bw + 2 halo] result
// lands in its `padded` tensor (resized on first use, reused afterwards —
// the steady state allocates nothing beyond the minimpi mailbox copies).
//
// Strips travel on the kHalo travel tags (direction of travel as offset) or,
// with `task_tags`, on elastic_halo_tag(dest_task, travel), which keeps the
// channels of several tiles per rank apart. kHalo tags need one tile per
// rank. exchange_halo below is begin() + finish() back to back, so both send
// the same message sequence per channel: seeded fault injection draws the
// same faults on either and degradation outcomes are bit-reproducible.
//
// Receives are bounded by `options`, CRC-checked, and degrade the border
// into the tile's BorderHealth (or throw when it is null). begin()/finish()
// must alternate; the partition, and every tile's tensors and health, must
// outlive the placement.
class HaloExchange {
 public:
  // One subdomain tile hosted by this rank.
  struct Tile {
    int task = 0;                      // partition block cy * px + cx
    const Tensor* interior = nullptr;  // [C, bh, bw], read by begin/finish
    Tensor* padded = nullptr;          // halo-padded input, written by finish
    BorderHealth* health = nullptr;    // nullptr: a lost border throws
  };

  // One tile per rank, tile == rank of `cart`, kHalo tags. Drive it with
  // the one-tile begin/finish below.
  HaloExchange(mpi::CartComm& cart, const Partition& partition,
               std::int64_t halo, const HaloOptions& options = {},
               BorderHealth* health = nullptr);

  // Any placement; call place() before the first begin().
  HaloExchange(mpi::Communicator& comm, const Partition& partition,
               std::int64_t halo, const HaloOptions& options, bool task_tags);

  // This rank hosts `tiles`; task t lives on rank owner[t]. Call again after
  // a rebalance moved tiles between ranks.
  void place(std::vector<Tile> tiles, const std::vector<int>& owner);

  // Posts the west/east strips of every tile to its live neighbours. Wall
  // time spent sending accumulates into `comm_time`.
  void begin(util::AccumulatingTimer* comm_time = nullptr);

  // Completes the exchange and assembles every tile's halo-padded input.
  // Wall time spent in receives/sends accumulates into `comm_time` (the
  // rollout step's "wait" share).
  void finish(util::AccumulatingTimer* comm_time = nullptr);

  // One-tile forms: `interior` ([C, bh, bw]) and `padded` become the only
  // tile's tensors for this exchange.
  void begin(const Tensor& interior,
             util::AccumulatingTimer* comm_time = nullptr);
  void finish(const Tensor& interior, Tensor& padded,
              util::AccumulatingTimer* comm_time = nullptr);

  // Marks every live border whose neighbouring tile is hosted by `rank`
  // degraded — that rank died — and returns how many it marked. No strip
  // crosses those borders again until place() re-points them and their
  // BorderHealth is reset.
  int lose_peer(int rank);

  // Times a tile's padded tensor had to be (re)allocated.
  [[nodiscard]] std::uint64_t growth_events() const noexcept {
    return growths_;
  }

 private:
  struct Placed {
    Tile tile;
    BlockRange block;
    std::array<int, 4> peer{};  // hosting rank per mpi::Direction, or kProcNull
    std::array<int, 4> next{};  // neighbouring task per mpi::Direction
  };

  Tile& only_tile();
  [[nodiscard]] int tag(int dest_task, mpi::Direction travel) const;
  [[nodiscard]] bool live(const Placed& p, mpi::Direction side) const;
  void send_strip(const Placed& p, mpi::Direction side, const Tensor& src,
                  std::int64_t y0, std::int64_t hh, std::int64_t x0,
                  std::int64_t ww, util::AccumulatingTimer* comm_time);
  bool robust_recv(const Placed& p, mpi::Direction side,
                   util::AccumulatingTimer* comm_time);
  void drain_stale(const Placed& p, mpi::Direction side);
  void degrade(const Placed& p, mpi::Direction side, const std::string& why);

  mpi::Communicator& comm_;
  const Partition& partition_;
  std::int64_t halo_;
  HaloOptions options_;
  bool task_tags_;
  std::vector<Placed> tiles_;

  std::vector<float> send_strip_;  // packed outgoing strip (reused)
  std::vector<float> recv_strip_;  // packed incoming strip (reused)
  std::uint64_t bytes_before_ = 0;
  std::uint64_t growths_ = 0;
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

// Rank 0 side of a field gather: receives the block `source` posted on
// tags::kFieldGather (its interior values) into `block`'s window of `full`
// ([C, H, W]), staging the payload in `strip` (resized; reuse one across
// calls and the gather allocates nothing). Per-channel FIFO ordering of the
// mailbox matches successive posts from one source in order.
void gather_block(mpi::Communicator& comm, int source, const BlockRange& block,
                  Tensor& full, std::vector<float>& strip);

}  // namespace parpde::domain
