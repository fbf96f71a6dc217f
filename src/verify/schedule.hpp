#pragma once

// parpde-mc: the deterministic schedule controller (docs/static-analysis.md,
// "schedule-space model checking").
//
// The minimpi transport calls the hook_* functions below at every scheduling
// decision point: message insertion into a mailbox (delivery order), receive
// matching (wakeup order / any-source choice), barrier arrival and release,
// and thread-pool chunk claiming. With a Schedule installed, each decision is
// a pure function of a SplitMix64 seed and a *stable key* derived from what
// the event is — (destination, source, tag, per-channel sequence number) for
// deliveries — never from wall-clock arrival order. That makes every explored
// schedule replayable: the same PARPDE_SCHEDULE spec fires the same
// perturbations no matter how the OS interleaves the threads.
//
// The only delivery perturbation is *front-running*: a selected message is
// inserted at the earliest legal queue slot (just after the last queued
// message of its own (source, tag) channel) instead of at the back. This
// preserves the non-overtaking guarantee the halo protocol relies on, and it
// cannot introduce deadlock or starvation — the set of queued messages is
// unchanged, only their relative order across channels, so any receive that
// could complete still completes.
//
// Alongside the perturbations the controller maintains per-rank vector
// clocks (send/recv/barrier edges) and uses them for DPOR-lite pruning — the
// trace signature hashes the observed happens-before-relevant orders
// (per-mailbox delivery order, per-rank receive sequence, barrier arrival
// order, pool chunk claims), so two interleavings that only differ in ways no
// rank can observe collapse to one signature — and to flag *order-sensitive
// receives*: an any-source match whose candidate messages are pairwise
// concurrent, i.e. a value that genuinely depends on which rank's message
// drains first.
//
// With -DPARPDE_VERIFY=OFF every hook below compiles to a constexpr no-op
// (the call sites fold away entirely); with the default ON build but no
// schedule installed, each hook costs one relaxed atomic load — the same
// pattern (and cost) as fault::enabled() on the send path.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace parpde::verify {

// A queued message eligible for a receive match, as seen by the audit hook.
struct MatchCandidate {
  int source = 0;
  const std::vector<std::uint32_t>* clock = nullptr;  // sender clock at send
};

#ifdef PARPDE_VERIFY_OFF

// Verification compiled out: the hooks are constexpr no-ops so every call
// site (and the branch guarding it) is dead code to the optimizer.
inline constexpr bool active() noexcept { return false; }
inline constexpr void hook_run_begin(int /*ranks*/) noexcept {}
inline constexpr void hook_thread_rank(int /*rank*/) noexcept {}
inline constexpr std::size_t hook_delivery_slot(
    int /*dest*/, int /*source*/, int /*tag*/, std::size_t /*lo*/,
    std::size_t hi, std::vector<std::uint32_t>* /*clock_out*/) noexcept {
  return hi;
}
inline constexpr void hook_match(int /*owner*/, int /*source_sel*/,
                                 int /*tag*/,
                                 const MatchCandidate* /*candidates*/,
                                 std::size_t /*count*/,
                                 std::size_t /*chosen*/) noexcept {}
inline constexpr void hook_recv_wait(int /*owner*/, int /*source*/,
                                     int /*tag*/) noexcept {}
inline constexpr void hook_barrier_arrive(int /*rank*/,
                                          std::uint64_t /*generation*/,
                                          int /*arrival_index*/,
                                          int /*size*/) noexcept {}
inline constexpr void hook_barrier_exit(int /*rank*/,
                                        std::uint64_t /*generation*/) noexcept {
}
inline constexpr std::uint64_t hook_pool_job_begin() noexcept { return 0; }
inline constexpr void hook_pool_chunk(std::uint64_t /*job_id*/,
                                      std::int64_t /*begin*/) noexcept {}

#else  // PARPDE_VERIFY_OFF

// A schedule specification, round-trippable through the PARPDE_SCHEDULE
// environment variable. Grammar:
//
//   seed=<u64>[;p=<0..100>][;yields=0|1][;only=<hex key>,<hex key>,...]
//
//   seed    SplitMix64 seed; all perturbation draws derive from it.
//   p       percent of delivery events to front-run (default 50).
//   yields  also jitter recv wakeups / barrier releases / pool claims with
//           seeded sched_yields (default 1). Yields widen the explored OS
//           interleavings but are not needed to replay a delivery reordering.
//   only    replay mode: perturb exactly these delivery keys (ignore p).
//           This is what the shrinker emits — a minimal reproducing spec.
struct Schedule {
  std::uint64_t seed = 1;
  int perturb_pct = 50;
  bool yields = true;
  std::vector<std::uint64_t> only;

  // Canonical spec string (parse(spec()) round-trips).
  [[nodiscard]] std::string spec() const;
  // Throws std::invalid_argument with the offending token on a bad spec.
  static Schedule parse(const std::string& spec);
};

// Everything the controller observed during the last (or current) installed
// schedule. Counters are cumulative since install().
struct RunReport {
  std::uint64_t trace_hash = 0;  // happens-before trace signature (DPOR-lite)
  std::uint64_t events = 0;      // deliveries + matches + barrier arrivals
  std::uint64_t deliveries = 0;
  std::uint64_t perturbed = 0;        // deliveries actually front-run
  std::uint64_t choice_matches = 0;   // matches with >1 eligible source
  std::uint64_t order_sensitive = 0;  // ...whose candidates were concurrent
  std::vector<std::uint64_t> fired_keys;  // perturbation keys that reordered
  // Every delivery decision, keyed by the stable delivery key. Pure function
  // of (seed, key), so two runs of the same spec agree exactly.
  std::vector<std::pair<std::uint64_t, bool>> decisions;  // sorted by key
};

// Install/remove the process-wide schedule controller. install() resets all
// counters, sequence numbers and clocks, so runs are comparable; uninstall()
// deactivates the hooks but keeps the state readable via report().
void install(Schedule schedule);
void uninstall();
// Installs from PARPDE_SCHEDULE if set and nothing is installed; returns
// whether a schedule is now active. Called once per process from
// hook_run_begin so any binary can be replayed via the environment.
bool install_from_env();
[[nodiscard]] RunReport report();

// True while a schedule is installed (one relaxed atomic load).
[[nodiscard]] bool active() noexcept;

// --- interception hooks (minimpi / thread_pool call sites) -----------------
// All hooks are safe to call whether or not a schedule is installed, from any
// thread, including threads that never registered a rank.

// An Environment::run is starting with `ranks` ranks: size the clock vectors.
void hook_run_begin(int ranks);
// The calling thread executes rank `rank` (mirrors telemetry thread ranks).
void hook_thread_rank(int rank);

// A message (source, tag) is being inserted into rank `dest`'s mailbox.
// `lo` is the earliest legal slot (non-overtaking floor), `hi` the back of
// the queue. Returns the slot to insert at; stamps the sender's vector clock
// into *clock_out (left untouched when inactive).
std::size_t hook_delivery_slot(int dest, int source, int tag, std::size_t lo,
                               std::size_t hi,
                               std::vector<std::uint32_t>* clock_out);

// Rank `owner` matched a receive for (source_sel, tag) and chose
// candidates[chosen]. Joins the sender's clock into the receiver's and
// audits any-source choices for order sensitivity.
void hook_match(int owner, int source_sel, int tag,
                const MatchCandidate* candidates, std::size_t count,
                std::size_t chosen);

// Rank `owner` is about to block for (source, tag): seeded wakeup jitter.
void hook_recv_wait(int owner, int source, int tag);

// Barrier edges: arrival joins the rank's clock into the generation
// accumulator; exit joins the accumulator back (all-to-all ordering).
void hook_barrier_arrive(int rank, std::uint64_t generation, int arrival_index,
                         int size);
void hook_barrier_exit(int rank, std::uint64_t generation);

// A parallel_for job is starting; returns a job id for chunk hooks (0 when
// inactive). Chunk claims are hashed into the trace and jittered under
// `yields` — chunk completion order is the third perturbation axis.
std::uint64_t hook_pool_job_begin();
void hook_pool_chunk(std::uint64_t job_id, std::int64_t begin);

#endif  // PARPDE_VERIFY_OFF

}  // namespace parpde::verify
