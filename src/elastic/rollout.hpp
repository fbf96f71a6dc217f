#pragma once

// Self-healing elastic rollout runtime.
//
// The default parallel_rollout freezes one subdomain per rank at launch, so
// a rank death leaves a permanent hole: survivors finish, but every border
// facing the dead rank degrades to zero padding for the rest of the run.
// This engine decouples subdomains from ranks:
//
//   * the grid is over-decomposed into M = trained.ranks subdomain *tasks*
//     hosted on P = M / tasks_per_rank physical ranks, routed through the
//     versioned Assignment map (elastic/assignment.hpp) instead of the
//     implicit (cx, cy) == rank identity;
//   * every step starts with a heartbeat barrier on the kElastic tag range
//     — each rank stamps {assignment epoch, step} to every live peer and
//     waits for the same from them, so a rank that dies at a step boundary
//     is noticed by *all* survivors at the *same* step once its lease
//     (lease x missed_leases) runs out — no coordinator, no collectives
//     (which would hang on the dead rank);
//   * on detection every survivor computes the identical rebalanced map
//     (a pure function of the failed set), adopts the orphaned tasks by
//     rebuilding their models from the trained report and rolling *all*
//     tasks back to the newest common PPES state snapshot
//     (elastic/state_checkpoint.hpp), re-points the per-task halo channels,
//     and resumes — BorderHealth goes healthy again and the final frames
//     are bit-identical to an uninterrupted run (placement independence:
//     per-task arithmetic does not depend on the hosting rank).
//
// Per-task forwards run through pre-sized ForwardPlans (zero-alloc steady
// state); task-to-task halo traffic reuses the exact two-phase strip
// geometry of domain/exchange.cpp, so an elastic rollout of an M-task
// report produces bit-identical frames to the classic engine rolling the
// same report on M ranks — the property the chaos and mc suites pin down.
//
// Deaths are supported at step boundaries (kill:rank=R,step=S and the
// check_kill_step hook); rank 0 hosts the recorded frames and must survive.
// Training stays zero-comm: heartbeats exist only inside this rollout loop.

#include "core/inference.hpp"

namespace parpde::elastic {

// Entry point used by core::parallel_rollout when options.elastic.enabled;
// see core/inference.hpp for the option and result contracts.
core::RolloutResult elastic_rollout(const core::TrainConfig& config,
                                    const core::ParallelTrainReport& trained,
                                    const Tensor& initial, int steps,
                                    const core::RolloutOptions& options);

}  // namespace parpde::elastic
