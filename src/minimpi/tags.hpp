#pragma once

// Central MPI tag registry. Every subsystem that exchanges point-to-point
// messages owns a named, disjoint tag range declared here; no call site may
// use an integer-literal tag (enforced by tools/parpde_lint.py, rule
// `literal-tag`). Range disjointness is checked at compile time, so a new
// subsystem that collides with an existing block fails to build instead of
// silently cross-matching messages at runtime.
//
// The runtime validator (minimpi/validate.hpp) uses owner()/describe() to
// name tags in its watchdog and leak diagnostics.

#include <array>
#include <string>

namespace parpde::mpi::tags {

// A half-open block [base, base + count) of tags owned by one subsystem.
struct TagRange {
  int base;
  int count;
  const char* name;

  [[nodiscard]] constexpr int last() const { return base + count - 1; }
  [[nodiscard]] constexpr bool contains(int tag) const {
    return tag >= base && tag < base + count;
  }
  [[nodiscard]] constexpr bool overlaps(const TagRange& other) const {
    return base < other.base + other.count && other.base < base + count;
  }
};

// --- the registry -----------------------------------------------------------
//
// Halo traffic encodes the payload's direction of travel (cart.hpp Direction,
// 4 values) as an offset into the block.

// domain/exchange.cpp: inference-time halo exchange between subdomains.
inline constexpr TagRange kHalo{4096, 4, "domain.halo"};
// domain/exchange.cpp: full-field gather to rank 0 (validation / I/O).
inline constexpr TagRange kFieldGather{4200, 1, "domain.field_gather"};
// domain/exchange.cpp: full-field scatter from rank 0.
inline constexpr TagRange kFieldScatter{4201, 1, "domain.field_scatter"};
// euler/parallel_solver.cpp: per-field halo blocks (4 fields x stride 10,
// direction offset 0..3 within each).
inline constexpr TagRange kEulerHalo{8200, 40, "euler.halo"};
// minimpi/environment.cpp: startup clock-offset handshake (probe + reply)
// used to align per-rank trace timestamps while telemetry is enabled.
inline constexpr TagRange kClockSync{4300, 2, "mpi.clocksync"};
// minimpi/collectives.hpp: reserved block so collective traffic can never
// match user point-to-point traffic.
inline constexpr TagRange kCollectives{1 << 20, 8, "mpi.collectives"};
// elastic/rollout.cpp heartbeats and the task-addressed halo strips of
// domain/exchange.cpp under the elastic runtime (sub-layout below).
inline constexpr TagRange kElastic{16384, 2048, "elastic"};
// serve/surrogate_server.cpp: the coalescing scheduler routes each batch
// dispatch through fault::on_send under this tag, so PARPDE_FAULT delay
// rules (and fault::install in tests) can slow the server deterministically
// — there is no actual message traffic on this range.
inline constexpr TagRange kServe{4400, 1, "serve.dispatch"};

inline constexpr std::array<TagRange, 8> kAllRanges{
    kHalo,      kFieldGather, kFieldScatter, kEulerHalo,
    kClockSync, kCollectives, kElastic,      kServe};

// --- compile-time overlap detection -----------------------------------------

template <std::size_t N>
constexpr bool ranges_valid(const std::array<TagRange, N>& ranges) {
  for (std::size_t i = 0; i < N; ++i) {
    if (ranges[i].count <= 0 || ranges[i].base < 0) return false;
    for (std::size_t j = i + 1; j < N; ++j) {
      if (ranges[i].overlaps(ranges[j])) return false;
    }
  }
  return true;
}

static_assert(ranges_valid(kAllRanges),
              "MPI tag ranges must be non-empty, non-negative and pairwise "
              "disjoint; adjust the colliding block in minimpi/tags.hpp");

// --- collective operation tags ----------------------------------------------

inline constexpr int kTagBarrier = kCollectives.base + 0;
inline constexpr int kTagBcast = kCollectives.base + 1;
inline constexpr int kTagReduce = kCollectives.base + 2;
inline constexpr int kTagGather = kCollectives.base + 3;
inline constexpr int kTagScatter = kCollectives.base + 4;
inline constexpr int kTagScan = kCollectives.base + 5;
inline constexpr int kTagAlltoall = kCollectives.base + 6;
inline constexpr int kTagSendrecv = kCollectives.base + 7;
static_assert(kTagSendrecv == kCollectives.last(),
              "collective tags must exactly fill the kCollectives range");

// --- elastic runtime sub-layout ---------------------------------------------

// The elastic runtime (src/elastic/) multiplexes M subdomain *tasks* over P
// ranks, so halo tags must name the destination task, not just the direction
// of travel. Frame gathers need no task tag: every rank posts its tasks'
// blocks on kFieldGather in ascending task order, and rank 0 collects them in
// the same order (FIFO per channel). Layout inside kElastic:
//   base + 0                          heartbeat (lease renewal)
//   base + 1 + task * 4 + direction   halo strip addressed to `task`
inline constexpr int kMaxElasticTasks = 256;

[[nodiscard]] constexpr int elastic_heartbeat_tag() { return kElastic.base; }

[[nodiscard]] constexpr int elastic_halo_tag(int task, int direction) {
  return kElastic.base + 1 + task * 4 + direction;
}

static_assert(elastic_halo_tag(kMaxElasticTasks - 1, 3) <= kElastic.last(),
              "elastic sub-layout must fit inside kElastic");

// --- euler solver field blocks ----------------------------------------------

// Fields rho/u/v/p get stride-10 sub-blocks; the direction offset (0..3)
// is added on top by the exchange loop.
inline constexpr int kEulerFieldStride = 10;
inline constexpr int kEulerFieldCount = 4;

[[nodiscard]] constexpr int euler_field_base(int field) {
  return kEulerHalo.base + field * kEulerFieldStride;
}
static_assert(euler_field_base(kEulerFieldCount - 1) + kEulerFieldStride - 1 <=
                  kEulerHalo.last(),
              "euler field sub-blocks must fit inside kEulerHalo");

// --- diagnostics ------------------------------------------------------------

// Name of the range owning `tag`, or "user" for unregistered tags (tests and
// ad-hoc experiments may use any tag outside the reserved ranges).
[[nodiscard]] constexpr const char* owner(int tag) {
  for (const auto& r : kAllRanges) {
    if (r.contains(tag)) return r.name;
  }
  return "user";
}

// Human-readable "4097 (domain.halo+1)" for watchdog / leak reports.
[[nodiscard]] inline std::string describe(int tag) {
  std::string out = std::to_string(tag);
  for (const auto& r : kAllRanges) {
    if (r.contains(tag)) {
      out += " (";
      out += r.name;
      out += "+";
      out += std::to_string(tag - r.base);
      out += ")";
      return out;
    }
  }
  out += " (user)";
  return out;
}

}  // namespace parpde::mpi::tags
