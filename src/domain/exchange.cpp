#include "domain/exchange.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "domain/halo.hpp"
#include "minimpi/tags.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace parpde::domain {

namespace {

// Interface-residual probes for the health monitor: mean absolute difference
// between two lines of a [C, h, w] tensor — the innermost received halo line
// against the adjacent interior line. Zero when neighbouring surrogates agree
// at the seam; growth across steps is the paper's stitching-error failure
// mode surfacing before frames visibly tear.

// Rows ya vs yb over x in [x0, x0 + len).
double row_residual(const Tensor& t, std::int64_t ya, std::int64_t yb,
                    std::int64_t x0, std::int64_t len) {
  const auto c = t.dim(0), h = t.dim(1), w = t.dim(2);
  double sum = 0.0;
  for (std::int64_t ic = 0; ic < c; ++ic) {
    const float* a = t.data() + (ic * h + ya) * w + x0;
    const float* b = t.data() + (ic * h + yb) * w + x0;
    for (std::int64_t i = 0; i < len; ++i) {
      sum += std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    }
  }
  return sum / static_cast<double>(c * len);
}

// Columns xa vs xb over y in [y0, y0 + len).
double col_residual(const Tensor& t, std::int64_t xa, std::int64_t xb,
                    std::int64_t y0, std::int64_t len) {
  const auto c = t.dim(0), h = t.dim(1), w = t.dim(2);
  double sum = 0.0;
  for (std::int64_t ic = 0; ic < c; ++ic) {
    const float* base = t.data() + (ic * h + y0) * w;
    for (std::int64_t y = 0; y < len; ++y) {
      sum += std::fabs(static_cast<double>(base[y * w + xa]) -
                       static_cast<double>(base[y * w + xb]));
    }
  }
  return sum / static_cast<double>(c * len);
}

// Grid step of each mpi::Direction (x grows east, y grows north).
constexpr std::array<int, 4> kStepX = {-1, 1, 0, 0};
constexpr std::array<int, 4> kStepY = {0, 0, -1, 1};

constexpr std::size_t idx(mpi::Direction d) {
  return static_cast<std::size_t>(d);
}

// Bounded-receive patience past HaloOptions' first wait: the backoff cap and
// the cumulative wall clock one border may wait per step.
constexpr std::chrono::milliseconds kMaxRecvTimeout{2000};
constexpr std::chrono::milliseconds kRecvBudget{10000};

}  // namespace

std::string BorderHealth::describe() const {
  std::string out;
  for (const mpi::Direction d : mpi::kAllDirections) {
    if (!degraded(d)) continue;
    if (!out.empty()) out += ',';
    out += direction_name(d).front();
  }
  return out;
}

HaloExchange::HaloExchange(mpi::Communicator& comm, const Partition& partition,
                           std::int64_t halo, const HaloOptions& options,
                           bool task_tags)
    : comm_(comm),
      partition_(partition),
      halo_(halo),
      options_(options),
      task_tags_(task_tags) {
  if (halo <= 0) {
    throw std::invalid_argument("HaloExchange: halo must be positive");
  }
}

HaloExchange::HaloExchange(mpi::CartComm& cart, const Partition& partition,
                           std::int64_t halo, const HaloOptions& options,
                           BorderHealth* health)
    : HaloExchange(cart.comm(), partition, halo, options, false) {
  if (cart.px() != partition.px() || cart.py() != partition.py()) {
    throw std::invalid_argument("HaloExchange: partition does not match cart");
  }
  std::vector<int> identity(static_cast<std::size_t>(partition.blocks()));
  std::iota(identity.begin(), identity.end(), 0);
  place({Tile{cart.comm().rank(), nullptr, nullptr, health}}, identity);
}

void HaloExchange::place(std::vector<Tile> tiles,
                         const std::vector<int>& owner) {
  const int px = partition_.px();
  const int py = partition_.py();
  if (in_flight_) {
    throw std::logic_error("HaloExchange::place: exchange in flight");
  }
  if (static_cast<int>(owner.size()) != px * py) {
    throw std::invalid_argument("HaloExchange: owner map must cover the grid");
  }
  if (!task_tags_ && tiles.size() > 1) {
    throw std::invalid_argument("HaloExchange: kHalo tags carry one tile per "
                                "rank; use task tags");
  }
  tiles_.clear();
  for (const Tile& tile : tiles) {
    Placed p;
    p.tile = tile;
    const int cx = tile.task % px;
    const int cy = tile.task / px;
    p.block = partition_.block(cx, cy);
    if (halo_ > p.block.height() || halo_ > p.block.width()) {
      throw std::invalid_argument("HaloExchange: halo exceeds block size");
    }
    for (const mpi::Direction d : mpi::kAllDirections) {
      const int nx = cx + kStepX[idx(d)];
      const int ny = cy + kStepY[idx(d)];
      const bool on_grid = nx >= 0 && nx < px && ny >= 0 && ny < py;
      p.next[idx(d)] = on_grid ? ny * px + nx : -1;
      p.peer[idx(d)] =
          on_grid ? owner[static_cast<std::size_t>(p.next[idx(d)])]
                  : mpi::kProcNull;
    }
    tiles_.push_back(p);
  }
}

int HaloExchange::lose_peer(int rank) {
  int lost = 0;
  for (const Placed& p : tiles_) {
    for (const mpi::Direction d : mpi::kAllDirections) {
      if (p.peer[idx(d)] == rank && p.tile.health != nullptr && live(p, d)) {
        p.tile.health->mark_degraded(d);
        ++lost;
      }
    }
  }
  return lost;
}

// The tag of a strip travelling in direction `travel` toward `dest_task`.
// kHalo encodes only the travel direction, so a rank receives its east halo
// as the message that travelled west from its east neighbour.
int HaloExchange::tag(int dest_task, mpi::Direction travel) const {
  const int d = static_cast<int>(travel);
  return task_tags_ ? mpi::tags::elastic_halo_tag(dest_task, d)
                    : mpi::tags::kHalo.base + d;
}

bool HaloExchange::live(const Placed& p, mpi::Direction side) const {
  return p.peer[idx(side)] != mpi::kProcNull &&
         !(p.tile.health != nullptr && p.tile.health->degraded(side));
}

void HaloExchange::degrade(const Placed& p, mpi::Direction side,
                           const std::string& why) {
  static telemetry::Counter& degraded_borders =
      telemetry::counter("inference.degraded_borders");
  std::string what = "rank " + std::to_string(comm_.rank());
  if (task_tags_) what += " task " + std::to_string(p.tile.task);
  what += ": halo border " + direction_name(side) + " (neighbour rank " +
          std::to_string(p.peer[idx(side)]) + ") lost: " + why;
  if (p.tile.health == nullptr) {
    throw std::runtime_error("exchange_halo: " + what);
  }
  degraded_borders.add(1);
  p.tile.health->mark_degraded(side);
  util::log_warn() << what << "; border degraded to zero padding";
}

void HaloExchange::drain_stale(const Placed& p, mpi::Direction side) {
  // A degraded border's neighbour may keep sending until it degrades its own
  // side; discard that stale mail so it cannot mismatch a later step (and so
  // the finalize leak check stays clean).
  if (p.peer[idx(side)] == mpi::kProcNull || p.tile.health == nullptr ||
      !p.tile.health->degraded(side)) {
    return;
  }
  while (comm_.recv_for<float>(p.peer[idx(side)],
                               tag(p.tile.task, mpi::opposite(side)),
                               std::chrono::milliseconds(0),
                               &recv_strip_) != mpi::RecvStatus::kTimeout) {
  }
}

// Packs the window of `src` and sends it across `side` to the neighbouring
// tile; only the send itself is charged to `comm_time`.
void HaloExchange::send_strip(const Placed& p, mpi::Direction side,
                              const Tensor& src, std::int64_t y0,
                              std::int64_t hh, std::int64_t x0,
                              std::int64_t ww,
                              util::AccumulatingTimer* comm_time) {
  pack_region_into(src, y0, hh, x0, ww, send_strip_);
  util::WallTimer timer;
  comm_.send<float>(p.peer[idx(side)], tag(p.next[idx(side)], side),
                    send_strip_);
  if (comm_time != nullptr) comm_time->add(timer.seconds());
}

// Bounded receive across `side` with exponentially backed-off retry: each
// timeout doubles the next attempt's wait (capped at kMaxRecvTimeout) until
// either `max_retries` attempts or the cumulative kRecvBudget is spent — a dead
// neighbour costs a handful of wakeups, not 40. A CRC-corrupt strip is a
// definitive loss (the payload was consumed — waiting longer would only steal
// the next step's strip and desynchronize the border forever). Returns false
// when the border just degraded; the caller leaves its halo zero. Timeout
// choices never touch the send-side fault engine, so per-channel fault-draw
// sequences are unchanged by any backoff schedule.
// Threading (src/minimpi/README.md): every receive runs on the rank's own
// thread through this object, and each (peer, tag) channel belongs to one
// tile border, so each channel (and recv_strip_) keeps a single consumer.
bool HaloExchange::robust_recv(const Placed& p, mpi::Direction side,
                               util::AccumulatingTimer* comm_time) {
  static telemetry::Counter& retries = telemetry::counter("comm.retries");
  static telemetry::Histogram& retry_latency =
      telemetry::histogram("comm.retry_seconds");
  const std::int64_t stall_start =
      telemetry::enabled() ? telemetry::now_us() : 0;
  util::WallTimer timer;
  int timeouts = 0;
  bool got = false;
  bool corrupt = false;
  std::chrono::milliseconds wait = options_.recv_timeout;
  std::chrono::milliseconds spent{0};
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0 && spent >= kRecvBudget) break;
    const std::chrono::milliseconds slice = std::min(
        wait, std::max(kRecvBudget - spent, std::chrono::milliseconds(1)));
    const mpi::RecvStatus status = comm_.recv_for<float>(
        p.peer[idx(side)], tag(p.tile.task, mpi::opposite(side)), slice,
        &recv_strip_);
    if (status == mpi::RecvStatus::kOk) {
      got = true;
      break;
    }
    if (status == mpi::RecvStatus::kCorrupt) {
      corrupt = true;
      break;
    }
    spent += slice;
    wait = std::min(wait * 2, kMaxRecvTimeout);
    ++timeouts;
    retries.add(1);
  }
  if (comm_time != nullptr) comm_time->add(timer.seconds());
  if (timeouts > 0) {
    retry_latency.observe(timer.seconds());
    // Retroactive span covering the whole degraded wait, so the critical-path
    // analyzer can attribute this slice of halo.finish to border trouble
    // rather than ordinary receive wait.
    if (telemetry::enabled()) {
      telemetry::emit_span("halo.stall", "comm", stall_start,
                           telemetry::now_us() - stall_start);
    }
  }
  if (got) return true;
  degrade(p, side, corrupt ? "strip failed its CRC envelope"
                           : "no strip within the retry budget (" +
                                 std::to_string(timeouts) + " attempts)");
  return false;
}

void HaloExchange::begin(util::AccumulatingTimer* comm_time) {
  if (in_flight_) {
    throw std::logic_error("HaloExchange::begin: previous exchange unfinished");
  }
  for (const Placed& p : tiles_) {
    const Tensor* in = p.tile.interior;
    if (in == nullptr || in->ndim() != 3) {
      throw std::invalid_argument("HaloExchange: expected [C,bh,bw] interior");
    }
    if (in->dim(1) != p.block.height() || in->dim(2) != p.block.width()) {
      throw std::invalid_argument(
          "HaloExchange: interior does not match block");
    }
  }
  static telemetry::Counter& exchanges = telemetry::counter("halo.exchanges");
  telemetry::Span span("halo.begin", "comm");
  exchanges.add(1);
  bytes_before_ = comm_.bytes_sent();
  util::WallTimer begin_timer;

  for (const Placed& p : tiles_) {
    for (const mpi::Direction side : mpi::kAllDirections) drain_stale(p, side);
  }
  // Phase-1 sends: the bare interiors' west/east strips leave as soon as the
  // step's output exists (buffered — the mailbox copy completes them).
  for (const Placed& p : tiles_) {
    const Tensor& in = *p.tile.interior;
    const auto bh = in.dim(1);
    const auto bw = in.dim(2);
    if (live(p, mpi::Direction::kWest)) {
      send_strip(p, mpi::Direction::kWest, in, 0, bh, 0, halo_, comm_time);
    }
    if (live(p, mpi::Direction::kEast)) {
      send_strip(p, mpi::Direction::kEast, in, 0, bh, bw - halo_, halo_,
                 comm_time);
    }
  }
  begin_seconds_ = begin_timer.seconds();
  in_flight_ = true;
}

void HaloExchange::finish(util::AccumulatingTimer* comm_time) {
  if (!in_flight_) {
    throw std::logic_error("HaloExchange::finish without begin");
  }
  in_flight_ = false;
  static telemetry::Counter& halo_bytes = telemetry::counter("halo.bytes_sent");
  static telemetry::Histogram& latency =
      telemetry::histogram("halo.exchange_seconds");
  // Health monitor: gauge the seam mismatch of each received strip (innermost
  // halo line vs the adjacent interior line). Only with a BorderHealth to
  // record into — callers without a degradation story skip the probes.
  static telemetry::Gauge& seam_gauge =
      telemetry::gauge("halo.interface_residual");
  telemetry::Span span("halo.finish", "comm");
  util::WallTimer finish_timer;
  const auto monitored = [this](const Placed& p) {
    return p.tile.health != nullptr && options_.probe_residuals;
  };
  const auto observe_seam = [](const Placed& p, double r) {
    p.tile.health->observe_residual(r);
    seam_gauge.set(r);
  };

  // Phase 1 completes for every tile: the interior goes into the middle of
  // the padded tensor and the west/east strips land beside its rows. Every
  // halo band is re-zeroed each step because the buffer is persistent and a
  // degraded (or physical) border must stay zero.
  for (const Placed& p : tiles_) {
    const Tensor& in = *p.tile.interior;
    Tensor& out = *p.tile.padded;
    const auto c = in.dim(0);
    const auto bh = in.dim(1);
    const auto bw = in.dim(2);
    const auto w = bw + 2 * halo_;
    if (out.ndim() != 3 || out.dim(0) != c || out.dim(1) != bh + 2 * halo_ ||
        out.dim(2) != w) {
      out = Tensor({c, bh + 2 * halo_, w});
    }
    copy_window(out, halo_, halo_, in.data(), c, bh, bw);
    zero_region(out, 0, halo_, 0, w);
    zero_region(out, halo_ + bh, halo_, 0, w);
    zero_region(out, halo_, bh, 0, halo_);
    zero_region(out, halo_, bh, halo_ + bw, halo_);
    if (live(p, mpi::Direction::kEast) &&
        robust_recv(p, mpi::Direction::kEast, comm_time)) {
      // East neighbour's west strip travelled west into our east halo.
      unpack_region(out, halo_, bh, halo_ + bw, halo_, recv_strip_);
      if (monitored(p)) {
        observe_seam(p,
                     col_residual(out, halo_ + bw, halo_ + bw - 1, halo_, bh));
      }
    }
    if (live(p, mpi::Direction::kWest) &&
        robust_recv(p, mpi::Direction::kWest, comm_time)) {
      unpack_region(out, halo_, bh, 0, halo_, recv_strip_);
      if (monitored(p)) {
        observe_seam(p, col_residual(out, halo_ - 1, halo_, halo_, bh));
      }
    }
  }

  // Phase 2: every tile sends the south/north rows of its x-extended
  // interior, so the diagonal corners arrive via the row neighbours; the
  // receives start only once every tile has sent.
  for (const Placed& p : tiles_) {
    const Tensor& out = *p.tile.padded;
    const auto bh = p.block.height();
    const auto w = out.dim(2);
    if (live(p, mpi::Direction::kSouth)) {
      send_strip(p, mpi::Direction::kSouth, out, halo_, halo_, 0, w,
                 comm_time);
    }
    if (live(p, mpi::Direction::kNorth)) {
      send_strip(p, mpi::Direction::kNorth, out, bh, halo_, 0, w, comm_time);
    }
  }
  for (const Placed& p : tiles_) {
    Tensor& out = *p.tile.padded;
    const auto bh = p.block.height();
    const auto bw = p.block.width();
    const auto w = out.dim(2);
    if (live(p, mpi::Direction::kNorth) &&
        robust_recv(p, mpi::Direction::kNorth, comm_time)) {
      unpack_region(out, halo_ + bh, halo_, 0, w, recv_strip_);
      if (monitored(p)) {
        observe_seam(p,
                     row_residual(out, halo_ + bh, halo_ + bh - 1, halo_, bw));
      }
    }
    if (live(p, mpi::Direction::kSouth) &&
        robust_recv(p, mpi::Direction::kSouth, comm_time)) {
      unpack_region(out, 0, halo_, 0, w, recv_strip_);
      if (monitored(p)) {
        observe_seam(p, row_residual(out, halo_ - 1, halo_, halo_, bw));
      }
    }
  }
  halo_bytes.add(comm_.bytes_sent() - bytes_before_);
  latency.observe(begin_seconds_ + finish_timer.seconds());
}

HaloExchange::Tile& HaloExchange::only_tile() {
  if (tiles_.size() != 1) {
    throw std::logic_error("HaloExchange: one-tile call on a multi-tile "
                           "placement");
  }
  return tiles_.front().tile;
}

void HaloExchange::begin(const Tensor& interior,
                         util::AccumulatingTimer* comm_time) {
  only_tile().interior = &interior;
  begin(comm_time);
}

void HaloExchange::finish(const Tensor& interior, Tensor& padded,
                          util::AccumulatingTimer* comm_time) {
  Tile& tile = only_tile();
  tile.interior = &interior;
  tile.padded = &padded;
  finish(comm_time);
}

Tensor exchange_halo(mpi::CartComm& cart, const Partition& partition,
                     const Tensor& interior, std::int64_t halo,
                     util::AccumulatingTimer* comm_time,
                     const HaloOptions& options, BorderHealth* health) {
  // HaloExchange rejects a halo that is negative or exceeds the block, and
  // begin() an interior that does not match it.
  if (halo == 0) return interior;
  HaloExchange exchange(cart, partition, halo, options, health);
  Tensor padded;
  exchange.begin(interior, comm_time);
  exchange.finish(interior, padded, comm_time);
  return padded;
}

Tensor gather_field(mpi::CartComm& cart, const Partition& partition,
                    const Tensor& interior) {
  mpi::Communicator& comm = cart.comm();
  if (comm.rank() != 0) {
    comm.send<float>(0, mpi::tags::kFieldGather.base, interior.values());
    return {};
  }
  Tensor full({interior.dim(0), partition.grid_h(), partition.grid_w()});
  const BlockRange root = partition.block_of_rank(0);
  copy_window(full, root.h0, root.w0, interior.data(), interior.dim(0),
              root.height(), root.width());
  std::vector<float> strip;
  for (int r = 1; r < comm.size(); ++r) {
    gather_block(comm, r, partition.block_of_rank(r), full, strip);
  }
  return full;
}

void gather_block(mpi::Communicator& comm, int source, const BlockRange& block,
                  Tensor& full, std::vector<float>& strip) {
  const auto c = full.dim(0);
  comm.recv_into<float>(source, mpi::tags::kFieldGather.base, &strip);
  if (strip.size() !=
      static_cast<std::size_t>(c * block.height() * block.width())) {
    throw std::runtime_error("gather_field: block size mismatch");
  }
  copy_window(full, block.h0, block.w0, strip.data(), c, block.height(),
              block.width());
}

}  // namespace parpde::domain
