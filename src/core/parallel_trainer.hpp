#pragma once

// The paper's contribution (Sec. III, "Training"): decompose every frame into
// spatial subdomains, assign an independent network + optimizer to each rank,
// and train with zero inter-rank communication.
//
// Two execution modes:
//  - kConcurrent: all ranks run as threads of an Environment (the real SPMD
//    program). Communication counters are asserted to stay at zero during
//    training, which checks the "communication-free" property structurally.
//  - kIsolated: ranks are trained one after another, each alone with its
//    per-rank share of the thread budget (one thread once the ranks fill
//    the host's cores), timing each in isolation. Because training is
//    communication-free and per-rank deterministic, this produces
//    bit-identical models, and max_r(T_r) is the parallel wall time P
//    dedicated cores would see — the Fig. 4 measurement protocol for rank
//    counts beyond the host's cores (DESIGN.md §5).

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "minimpi/cart.hpp"

namespace parpde::core {

enum class ExecutionMode { kConcurrent, kIsolated };

struct RankOutcome {
  int rank = 0;
  domain::BlockRange block;
  std::vector<Tensor> parameters;  // trained values, declaration order
  TrainResult result;
  std::uint64_t train_bytes_sent = 0;      // asserted 0 in concurrent mode
  std::uint64_t train_bytes_received = 0;  // symmetric recv-side accounting
};

// One injected-fault death observed during training: which rank died, where
// (training epoch; step is -1 outside rollouts) and the RankFailure message.
// Surfaced verbatim in the JSONL run report's `rank_failures` array.
struct RankFailureRecord {
  int rank = -1;
  int epoch = -1;
  int step = -1;
  std::string error;
};

struct ParallelTrainReport {
  int ranks = 1;
  mpi::Dims dims;
  ExecutionMode mode = ExecutionMode::kConcurrent;
  std::vector<RankOutcome> rank_outcomes;
  double wall_seconds = 0.0;  // wall time of the whole call (serialized here)
  // Deaths observed during this call (fault injection), in rank order.
  // Transient diagnostics: not serialized into ensemble checkpoints.
  std::vector<RankFailureRecord> failures;
  // Tasks that died mid-training (fault injection) and were retrained alone
  // from their latest valid checkpoint; with tasks_per_rank > 1 a host-rank
  // death retrains every task it carried. Task id == rank id in the classic
  // one-task-per-rank layout. Empty on a healthy run.
  std::vector<int> retrained_ranks;

  // max_r T_r: the modeled parallel training time on dedicated cores.
  [[nodiscard]] double modeled_parallel_seconds() const;
  // sum_r T_r: total compute work.
  [[nodiscard]] double total_work_seconds() const;
  // Mean of the per-rank final training losses.
  [[nodiscard]] double mean_final_loss() const;
};

// Crash-consistency knobs (docs/robustness.md). With a checkpoint directory
// configured, every rank snapshots its full training state (weights + ADAM
// moments + shuffle RNG + epoch) every `checkpoint_every` epochs, written
// atomically with a CRC. `resume` restarts each rank from its latest *valid*
// checkpoint — bit-identically to the uninterrupted run. Independent of the
// options, a rank killed mid-run by fault injection is retrained alone from
// its checkpoint after the surviving ranks finish; because training is
// communication-free (Sec. III), one dead rank costs exactly one subdomain's
// work, never the ensemble.
struct FaultToleranceOptions {
  std::string checkpoint_dir;  // empty = no checkpoint/restart
  int checkpoint_every = 0;    // epochs between snapshots (0 = no snapshots)
  bool resume = false;         // start from the latest valid checkpoints
};

class ParallelTrainer {
 public:
  // `ranks` physical ranks training `ranks * tasks_per_rank` subdomain tasks;
  // the *task* count is factorized into the 2-d grid via dims_create, so the
  // report's `ranks`/`dims`/`rank_outcomes` all describe tasks. With
  // tasks_per_rank == 1 (the default) this is the classic one-subdomain-per-
  // rank layout. Over-decomposition (> 1) exists for the elastic runtime
  // (src/elastic/): a task's seed stream is its task id, so the trained
  // weights are independent of which rank hosted the training — survivors can
  // adopt a dead rank's tasks and resume bit-identically.
  ParallelTrainer(TrainConfig config, int ranks, int tasks_per_rank = 1);

  // Trains all ranks. When `resume_from` is supplied (e.g. a loaded
  // checkpoint of a compatible topology/architecture), every rank starts from
  // its previously trained weights instead of a fresh initialization —
  // optimizer state (ADAM moments) restarts. `fault_tolerance` (may be null)
  // enables mid-training checkpoints, crash resume and dead-rank retraining.
  [[nodiscard]] ParallelTrainReport train(
      const data::FrameDataset& dataset,
      ExecutionMode mode = ExecutionMode::kConcurrent,
      const ParallelTrainReport* resume_from = nullptr,
      const FaultToleranceOptions* fault_tolerance = nullptr) const;

  [[nodiscard]] const TrainConfig& config() const { return config_; }
  [[nodiscard]] mpi::Dims dims() const { return dims_; }
  [[nodiscard]] int tasks_per_rank() const { return tasks_per_rank_; }

 private:
  TrainConfig config_;
  int ranks_;
  int tasks_per_rank_;
  mpi::Dims dims_;
};

}  // namespace parpde::core
