#pragma once

// The elastic-only steps of the rollout step loop (core::parallel_rollout).
//
// parallel_rollout runs one task-keyed loop: one subdomain task per rank by
// default, and with RolloutOptions::elastic on, the M = trained.ranks tasks
// spread over P = M / tasks_per_rank ranks through the versioned Assignment
// map (elastic/assignment.hpp). Only then does the loop add:
//
//   * check_kill_step, the fault plan's step-boundary kill point;
//   * the heartbeat barrier below: each rank stamps {assignment epoch, step}
//     to every live peer and waits for the same, so a rank that dies at a
//     step boundary is noticed by *all* survivors at the *same* step once
//     its lease budget (lease x missed_leases) runs out — no coordinator and
//     no collectives (which would hang on the dead rank);
//   * on a DeathNotice, the identical rebalance on every survivor (a pure
//     function of the failed set), adoption of the orphaned tasks, rollback
//     of all tasks to the newest common PPES snapshot
//     (elastic/state_checkpoint.hpp) and a re-placed halo exchange;
//   * PPES snapshots every `state_every` steps.
//
// The exchange (domain::HaloExchange, one tile per task), forward, health
// scan and gather are the same code either way, so per-task arithmetic does
// not depend on the hosting rank and a healed run is bit-identical to an
// undisturbed one. Deaths are supported at step boundaries only, and rank 0
// hosts the recorded frames and must survive.

#include <chrono>
#include <cstdint>
#include <vector>

#include "minimpi/communicator.hpp"

namespace parpde::elastic {

// Thrown out of Heartbeat::barrier when a peer's lease budget is exhausted;
// carries every peer that expired at that moment so simultaneous deaths
// rebalance as one batch on every survivor.
struct DeathNotice {
  std::vector<int> failed;
  double waited_seconds = 0.0;
};

class Heartbeat {
 public:
  // A peer is declared dead after `missed_leases` lease intervals of
  // silence while this rank waits on it.
  Heartbeat(mpi::Communicator& comm, std::chrono::milliseconds lease,
            int missed_leases);

  // Sends this step's heartbeat to every live peer (unless `resend` is
  // false — a barrier re-entered after a no-recover death already sent it)
  // and waits until every live peer's heartbeat reaches (epoch, step).
  // Throws DeathNotice for the peers that stayed silent for the whole lease
  // budget. Never uses a collective: those would hang on the dead rank.
  void barrier(int epoch, int step, const std::vector<char>& live,
               bool resend);

 private:
  mpi::Communicator& comm_;
  std::chrono::milliseconds lease_;
  std::int64_t budget_ms_;
  // Per-peer high-water mark of the (epoch, step) key the last heartbeat
  // carried; the lexicographic key lets post-recovery barriers consume any
  // stale pre-recovery heartbeat without miscounting it.
  std::vector<std::int64_t> seen_;
  // Per-peer silence this barrier has waited out, zeroed at each barrier.
  std::vector<std::int64_t> waited_ms_;
  std::vector<std::uint32_t> buf_;
};

}  // namespace parpde::elastic
