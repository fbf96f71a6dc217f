#include "domain/exchange.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "domain/halo.hpp"
#include "minimpi/tags.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace parpde::domain {

namespace {

// Halo traffic uses the registered tags::kHalo block; the payload's direction
// of travel is encoded as the offset, so a rank receives its east halo as the
// message that travelled west from its east neighbour.
constexpr int travel_tag(mpi::Direction d) {
  return mpi::tags::kHalo.base + static_cast<int>(d);
}

// The tag a strip arriving across border `side` carries: it travelled in the
// opposite direction (our east halo is the neighbour's west-travelling strip).
int arrival_tag(mpi::Direction side) {
  return travel_tag(mpi::opposite(side));
}

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

// Columns xa vs xb over all rows.
double col_residual(const Tensor& t, std::int64_t xa, std::int64_t xb) {
  const auto c = t.dim(0), h = t.dim(1), w = t.dim(2);
  double sum = 0.0;
  for (std::int64_t ic = 0; ic < c; ++ic) {
    const float* base = t.data() + ic * h * w;
    for (std::int64_t y = 0; y < h; ++y) {
      sum += std::fabs(static_cast<double>(base[y * w + xa]) -
                       static_cast<double>(base[y * w + xb]));
    }
  }
  return sum / static_cast<double>(c * h);
}

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

HaloExchange::HaloExchange(mpi::CartComm& cart, const Partition& partition,
                           std::int64_t halo, const HaloOptions& options,
                           BorderHealth* health)
    : cart_(cart),
      partition_(partition),
      halo_(halo),
      options_(options),
      health_(health) {
  if (halo <= 0) {
    throw std::invalid_argument("HaloExchange: halo must be positive");
  }
}

bool HaloExchange::live(mpi::Direction side) const {
  return cart_.neighbor(side) != mpi::kProcNull &&
         !(health_ != nullptr && health_->degraded(side));
}

void HaloExchange::degrade(mpi::Direction side, const std::string& why) {
  static telemetry::Counter& degraded_borders =
      telemetry::counter("inference.degraded_borders");
  mpi::Communicator& comm = cart_.comm();
  const std::string what =
      "rank " + std::to_string(comm.rank()) + ": halo border " +
      direction_name(side) + " (neighbour rank " +
      std::to_string(cart_.neighbor(side)) + ") lost: " + why;
  if (health_ == nullptr) {
    throw std::runtime_error("exchange_halo: " + what);
  }
  degraded_borders.add(1);
  health_->mark_degraded(side);
  util::log_warn() << what << "; border degraded to zero padding";
}

void HaloExchange::drain_stale(mpi::Direction side) {
  // A degraded border's neighbour may keep sending until it degrades its own
  // side; discard that stale mail so it cannot mismatch a later step (and so
  // the finalize leak check stays clean).
  if (cart_.neighbor(side) == mpi::kProcNull || health_ == nullptr ||
      !health_->degraded(side)) {
    return;
  }
  mpi::Communicator& comm = cart_.comm();
  while (comm.recv_for<float>(cart_.neighbor(side), arrival_tag(side),
                              std::chrono::milliseconds(0),
                              &recv_strip_) != mpi::RecvStatus::kTimeout) {
  }
}

void HaloExchange::timed_send(mpi::Direction side,
                              const std::vector<float>& strip,
                              util::AccumulatingTimer* comm_time) {
  util::WallTimer timer;
  cart_.comm().send<float>(cart_.neighbor(side), travel_tag(side), strip);
  if (comm_time != nullptr) comm_time->add(timer.seconds());
}

// Bounded receive across `side` with exponentially backed-off retry: each
// timeout doubles the next attempt's wait (capped at `max_recv_timeout`)
// until either `max_retries` attempts or the cumulative `recv_budget` is
// spent — a dead neighbour costs a handful of wakeups, not 40. A CRC-corrupt
// strip is a definitive loss (the payload was consumed — waiting longer
// would only steal the next step's strip and desynchronize the border
// forever). Returns false when the border just degraded; the caller leaves
// its halo zero. Timeout choices never touch the send-side fault engine, so
// per-channel fault-draw sequences are unchanged by any backoff schedule.
// Threading (src/minimpi/README.md): one side's receives are strictly
// sequential through this object, so each halo channel (and recv_strip_)
// keeps a single consumer.
bool HaloExchange::robust_recv(mpi::Direction side,
                               util::AccumulatingTimer* comm_time) {
  static telemetry::Counter& retries = telemetry::counter("comm.retries");
  static telemetry::Histogram& retry_latency =
      telemetry::histogram("comm.retry_seconds");
  mpi::Communicator& comm = cart_.comm();
  const std::int64_t stall_start =
      telemetry::enabled() ? telemetry::now_us() : 0;
  util::WallTimer timer;
  int timeouts = 0;
  bool got = false;
  bool corrupt = false;
  std::chrono::milliseconds wait = options_.recv_timeout;
  std::chrono::milliseconds spent{0};
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0 && spent >= options_.recv_budget) break;
    const std::chrono::milliseconds slice =
        std::min(wait, std::max(options_.recv_budget - spent,
                                std::chrono::milliseconds(1)));
    const mpi::RecvStatus status = comm.recv_for<float>(
        cart_.neighbor(side), arrival_tag(side), slice, &recv_strip_);
    if (status == mpi::RecvStatus::kOk) {
      got = true;
      break;
    }
    if (status == mpi::RecvStatus::kCorrupt) {
      corrupt = true;
      break;
    }
    spent += slice;
    wait = std::min(wait * 2, options_.max_recv_timeout);
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
  degrade(side, corrupt ? "strip failed its CRC envelope"
                        : "no strip within the retry budget (" +
                              std::to_string(timeouts) + " attempts)");
  return false;
}

void HaloExchange::begin(const Tensor& interior,
                         util::AccumulatingTimer* comm_time) {
  if (interior.ndim() != 3) {
    throw std::invalid_argument("HaloExchange: expected [C,bh,bw] interior");
  }
  const BlockRange block = partition_.block(cart_.cx(), cart_.cy());
  const auto bh = interior.dim(1);
  const auto bw = interior.dim(2);
  if (bh != block.height() || bw != block.width()) {
    throw std::invalid_argument("HaloExchange: interior does not match block");
  }
  if (halo_ > bh || halo_ > bw) {
    throw std::invalid_argument("HaloExchange: halo exceeds block size");
  }
  if (in_flight_) {
    throw std::logic_error("HaloExchange::begin: previous exchange unfinished");
  }
  static telemetry::Counter& exchanges = telemetry::counter("halo.exchanges");
  telemetry::Span span("halo.begin", "comm");
  exchanges.add(1);
  bytes_before_ = cart_.comm().bytes_sent();
  util::WallTimer begin_timer;

  for (const mpi::Direction side : mpi::kAllDirections) drain_stale(side);

  // Phase-1 sends: the bare interior's west/east strips leave as soon as the
  // step's output exists (buffered — the mailbox copy completes them).
  if (live(mpi::Direction::kWest)) {
    pack_region_into(interior, 0, bh, 0, halo_, send_strip_);
    timed_send(mpi::Direction::kWest, send_strip_, comm_time);
  }
  if (live(mpi::Direction::kEast)) {
    pack_region_into(interior, 0, bh, bw - halo_, halo_, send_strip_);
    timed_send(mpi::Direction::kEast, send_strip_, comm_time);
  }
  begin_seconds_ = begin_timer.seconds();
  in_flight_ = true;
}

void HaloExchange::finish(const Tensor& interior, Tensor& padded,
                          util::AccumulatingTimer* comm_time) {
  if (!in_flight_) {
    throw std::logic_error("HaloExchange::finish without begin");
  }
  in_flight_ = false;
  static telemetry::Counter& halo_bytes = telemetry::counter("halo.bytes_sent");
  static telemetry::Histogram& latency =
      telemetry::histogram("halo.exchange_seconds");
  telemetry::Span span("halo.finish", "comm");
  util::WallTimer finish_timer;

  const auto c = interior.dim(0);
  const auto bh = interior.dim(1);
  const auto bw = interior.dim(2);

  // Phase 1 completes: west/east strips land in the x-extended staging
  // tensor. The side bands are re-zeroed every step because the buffer is
  // persistent and a degraded (or physical) border must stay zero.
  if (ext_x_.ndim() != 3 || ext_x_.dim(0) != c || ext_x_.dim(1) != bh ||
      ext_x_.dim(2) != bw + 2 * halo_) {
    ext_x_ = Tensor({c, bh, bw + 2 * halo_});
  }
  copy_window(ext_x_, 0, halo_, interior.data(), c, bh, bw);
  zero_region(ext_x_, 0, bh, 0, halo_);
  zero_region(ext_x_, 0, bh, halo_ + bw, halo_);
  // Health monitor: gauge the seam mismatch of each received strip (innermost
  // halo line vs the adjacent interior line). Only with a BorderHealth to
  // record into — callers without a degradation story skip the probes.
  static telemetry::Gauge& seam_gauge =
      telemetry::gauge("halo.interface_residual");
  const bool probe = health_ != nullptr && options_.probe_residuals;
  const auto observe_seam = [this](double r) {
    health_->observe_residual(r);
    seam_gauge.set(r);
  };
  if (live(mpi::Direction::kEast) &&
      robust_recv(mpi::Direction::kEast, comm_time)) {
    // East neighbour's west strip travelled west into our east halo.
    unpack_region(ext_x_, 0, bh, halo_ + bw, halo_, recv_strip_);
    if (probe) observe_seam(col_residual(ext_x_, halo_ + bw, halo_ + bw - 1));
  }
  if (live(mpi::Direction::kWest) &&
      robust_recv(mpi::Direction::kWest, comm_time)) {
    unpack_region(ext_x_, 0, bh, 0, halo_, recv_strip_);
    if (probe) observe_seam(col_residual(ext_x_, halo_ - 1, halo_));
  }

  // Phase 2: exchange south/north strips of the x-extended tensor, so the
  // diagonal corners arrive via the row neighbours.
  if (padded.ndim() != 3 || padded.dim(0) != c ||
      padded.dim(1) != bh + 2 * halo_ || padded.dim(2) != bw + 2 * halo_) {
    padded = Tensor({c, bh + 2 * halo_, bw + 2 * halo_});
  }
  copy_window(padded, halo_, 0, ext_x_.data(), c, bh, bw + 2 * halo_);
  zero_region(padded, 0, halo_, 0, bw + 2 * halo_);
  zero_region(padded, halo_ + bh, halo_, 0, bw + 2 * halo_);

  if (live(mpi::Direction::kSouth)) {
    pack_region_into(ext_x_, 0, halo_, 0, bw + 2 * halo_, send_strip_);
    timed_send(mpi::Direction::kSouth, send_strip_, comm_time);
  }
  if (live(mpi::Direction::kNorth)) {
    pack_region_into(ext_x_, bh - halo_, halo_, 0, bw + 2 * halo_, send_strip_);
    timed_send(mpi::Direction::kNorth, send_strip_, comm_time);
  }
  if (live(mpi::Direction::kNorth) &&
      robust_recv(mpi::Direction::kNorth, comm_time)) {
    unpack_region(padded, halo_ + bh, halo_, 0, bw + 2 * halo_, recv_strip_);
    if (probe) {
      observe_seam(row_residual(padded, halo_ + bh, halo_ + bh - 1, halo_, bw));
    }
  }
  if (live(mpi::Direction::kSouth) &&
      robust_recv(mpi::Direction::kSouth, comm_time)) {
    unpack_region(padded, 0, halo_, 0, bw + 2 * halo_, recv_strip_);
    if (probe) observe_seam(row_residual(padded, halo_ - 1, halo_, halo_, bw));
  }
  halo_bytes.add(cart_.comm().bytes_sent() - bytes_before_);
  latency.observe(begin_seconds_ + finish_timer.seconds());
}

Tensor exchange_halo(mpi::CartComm& cart, const Partition& partition,
                     const Tensor& interior, std::int64_t halo,
                     util::AccumulatingTimer* comm_time,
                     const HaloOptions& options, BorderHealth* health) {
  if (interior.ndim() != 3) {
    throw std::invalid_argument("exchange_halo: expected [C,bh,bw] interior");
  }
  const BlockRange block = partition.block(cart.cx(), cart.cy());
  if (interior.dim(1) != block.height() || interior.dim(2) != block.width()) {
    throw std::invalid_argument("exchange_halo: interior does not match block");
  }
  if (halo < 0 || halo > interior.dim(1) || halo > interior.dim(2)) {
    throw std::invalid_argument("exchange_halo: halo exceeds block size");
  }
  if (halo == 0) return interior;

  HaloExchange exchange(cart, partition, halo, options, health);
  Tensor padded;
  exchange.begin(interior, comm_time);
  exchange.finish(interior, padded, comm_time);
  return padded;
}

Tensor gather_field(mpi::CartComm& cart, const Partition& partition,
                    const Tensor& interior) {
  gather_field_send(cart, interior);
  Tensor full;
  gather_field_collect(cart, partition, interior, full);
  return full;
}

void gather_field_send(mpi::CartComm& cart, const Tensor& interior) {
  mpi::Communicator& comm = cart.comm();
  if (comm.rank() == 0) return;
  comm.send<float>(0, mpi::tags::kFieldGather.base, interior.values());
}

void gather_field_collect(mpi::CartComm& cart, const Partition& partition,
                          const Tensor& root_interior, Tensor& full) {
  mpi::Communicator& comm = cart.comm();
  if (comm.rank() != 0) return;
  const auto c = root_interior.dim(0);
  if (full.ndim() != 3 || full.dim(0) != c ||
      full.dim(1) != partition.grid_h() || full.dim(2) != partition.grid_w()) {
    full = Tensor({c, partition.grid_h(), partition.grid_w()});
  }
  // Rank 0's own block.
  const BlockRange root = partition.block_of_rank(0);
  copy_window(full, root.h0, root.w0, root_interior.data(), c, root.height(),
              root.width());
  for (int r = 1; r < comm.size(); ++r) {
    const auto strip = comm.recv<float>(r, mpi::tags::kFieldGather.base);
    const BlockRange block = partition.block_of_rank(r);
    if (strip.size() !=
        static_cast<std::size_t>(c * block.height() * block.width())) {
      throw std::runtime_error("gather_field: block size mismatch");
    }
    copy_window(full, block.h0, block.w0, strip.data(), c, block.height(),
                block.width());
  }
}

Tensor scatter_field(mpi::CartComm& cart, const Partition& partition,
                     const Tensor& full) {
  mpi::Communicator& comm = cart.comm();
  const BlockRange mine = partition.block(cart.cx(), cart.cy());
  if (comm.rank() == 0) {
    if (full.ndim() != 3 || full.dim(1) != partition.grid_h() ||
        full.dim(2) != partition.grid_w()) {
      throw std::invalid_argument("scatter_field: bad full field shape");
    }
    std::vector<float> strip;
    for (int r = 1; r < comm.size(); ++r) {
      const BlockRange block = partition.block_of_rank(r);
      pack_region_into(full, block.h0, block.height(), block.w0, block.width(),
                       strip);
      comm.send<float>(r, mpi::tags::kFieldScatter.base, strip);
    }
    return extract_interior(full, mine);
  }
  const auto strip = comm.recv<float>(0, mpi::tags::kFieldScatter.base);
  const std::int64_t c =
      static_cast<std::int64_t>(strip.size()) / (mine.height() * mine.width());
  Tensor mine_t({c, mine.height(), mine.width()});
  unpack_region(mine_t, 0, mine.height(), 0, mine.width(), strip);
  return mine_t;
}

}  // namespace parpde::domain
