#include "core/parallel_trainer.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/train_checkpoint.hpp"
#include "minimpi/environment.hpp"
#include "minimpi/fault.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace parpde::core {

double ParallelTrainReport::modeled_parallel_seconds() const {
  double m = 0.0;
  for (const auto& r : rank_outcomes) m = std::max(m, r.result.seconds);
  return m;
}

double ParallelTrainReport::total_work_seconds() const {
  double s = 0.0;
  for (const auto& r : rank_outcomes) s += r.result.seconds;
  return s;
}

double ParallelTrainReport::mean_final_loss() const {
  if (rank_outcomes.empty()) return 0.0;
  double s = 0.0;
  for (const auto& r : rank_outcomes) s += r.result.final_loss();
  return s / static_cast<double>(rank_outcomes.size());
}

ParallelTrainer::ParallelTrainer(TrainConfig config, int ranks,
                                 int tasks_per_rank)
    : config_(std::move(config)),
      ranks_(ranks),
      tasks_per_rank_(tasks_per_rank),
      dims_(mpi::dims_create(ranks * tasks_per_rank)) {
  if (ranks <= 0) throw std::invalid_argument("ParallelTrainer: ranks must be > 0");
  if (tasks_per_rank <= 0) {
    throw std::invalid_argument("ParallelTrainer: tasks_per_rank must be > 0");
  }
}

ParallelTrainReport ParallelTrainer::train(
    const data::FrameDataset& dataset, ExecutionMode mode,
    const ParallelTrainReport* resume_from,
    const FaultToleranceOptions* fault_tolerance) const {
  const auto split = dataset.chronological_split(config_.train_fraction);
  // Everything below is task-indexed: `tasks` subdomains tile the grid, and
  // physical rank r hosts tasks {t : t % ranks_ == r}. The classic layout is
  // the tasks_per_rank == 1 special case where task id == rank id.
  const int tasks = ranks_ * tasks_per_rank_;
  const domain::Partition partition(dataset.height(), dataset.width(), dims_.px,
                                    dims_.py);
  if (resume_from != nullptr &&
      (resume_from->ranks != tasks ||
       static_cast<int>(resume_from->rank_outcomes.size()) != tasks)) {
    throw std::invalid_argument(
        "ParallelTrainer: resume checkpoint has a different rank count");
  }

  ParallelTrainReport report;
  report.ranks = tasks;
  report.dims = dims_;
  report.mode = mode;
  report.rank_outcomes.resize(static_cast<std::size_t>(tasks));

  const bool checkpoints_on = fault_tolerance != nullptr &&
                              !fault_tolerance->checkpoint_dir.empty();

  // Per-rank training body; communication-free by construction (Sec. III:
  // "the training data are directly fed into the network from the memory").
  // `resume_checkpoint` restarts from the rank's latest valid mid-training
  // checkpoint — used for a `--resume` restart and for retraining a rank the
  // fault injector killed.
  auto train_rank = [&](int rank, bool resume_checkpoint) -> RankOutcome {
    telemetry::Span span("train.rank", "train");
    RankOutcome outcome;
    outcome.rank = rank;
    outcome.block = partition.block_of_rank(rank);
    const auto task = make_subdomain_task(dataset.frames(), split.train,
                                          outcome.block, config_);
    NetworkTrainer trainer(config_, static_cast<std::uint64_t>(rank));
    if (resume_from != nullptr) {
      import_parameters(
          trainer.model(),
          resume_from->rank_outcomes[static_cast<std::size_t>(rank)].parameters);
    }
    std::optional<TrainerSnapshot> snapshot;
    CheckpointHook hook;
    const CheckpointHook* hook_ptr = nullptr;
    if (checkpoints_on) {
      if (resume_checkpoint) {
        snapshot =
            load_latest_checkpoint(fault_tolerance->checkpoint_dir, rank);
        if (snapshot) {
          util::log_info() << "rank " << rank << ": resuming from epoch "
                           << snapshot->next_epoch;
        }
      }
      if (fault_tolerance->checkpoint_every > 0) {
        hook.every_epochs = fault_tolerance->checkpoint_every;
        hook.save = [&fault_tolerance, rank](const TrainerSnapshot& snap) {
          save_rank_checkpoint(fault_tolerance->checkpoint_dir, rank, snap);
        };
        hook_ptr = &hook;
      }
    }
    outcome.result =
        trainer.train(task, snapshot ? &*snapshot : nullptr, hook_ptr);
    outcome.parameters = export_parameters(trainer.model());
    return outcome;
  };

  const bool resume_all = fault_tolerance != nullptr && fault_tolerance->resume;

  // Retrains one dead rank by itself (its checkpoint survives the crash;
  // with no checkpoint it restarts from scratch). The fault injector's kill
  // directive fires at most once per installed plan, so the retrain runs to
  // completion.
  auto retrain_rank = [&](int rank, const std::string& error) {
    static telemetry::Counter& retrained =
        telemetry::counter("train.rank_retrained");
    retrained.add(1);
    util::log_warn() << "rank " << rank << " failed mid-training (" << error
                     << "); retraining it alone from its checkpoint";
    telemetry::set_thread_rank(rank);
    report.rank_outcomes[static_cast<std::size_t>(rank)] =
        train_rank(rank, /*resume_checkpoint=*/true);
    telemetry::set_thread_rank(-1);
    report.retrained_ranks.push_back(rank);
  };

  // Intra-rank threading budget. In concurrent mode the R rank threads share
  // the global pool, so the pool gets R * per_rank - R workers (the rank
  // threads themselves count toward the hardware budget); in isolated mode
  // ranks run one at a time, each with the per-rank share it would own in a
  // real deployment. Kernels are bit-deterministic in the worker count, so
  // the two modes still produce identical models.
  const int concurrent_workers =
      util::ThreadPool::resolve_workers(config_.num_threads, ranks_);
  util::ThreadPool::configure_global(mode == ExecutionMode::kIsolated
                                         ? concurrent_workers / ranks_
                                         : concurrent_workers);

  util::WallTimer wall;
  if (mode == ExecutionMode::kIsolated) {
    for (int t = 0; t < tasks; ++t) {
      // Attribute this task's spans to its own trace lane even though the
      // tasks run serially on the calling thread.
      telemetry::set_thread_rank(t);
      try {
        report.rank_outcomes[static_cast<std::size_t>(t)] =
            train_rank(t, resume_all);
      } catch (const mpi::fault::RankFailure& failure) {
        report.failures.push_back(
            {t, failure.epoch(), failure.step(), failure.what()});
        retrain_rank(t, failure.what());
      }
    }
    telemetry::set_thread_rank(-1);
  } else {
    mpi::Environment env(ranks_);
    auto rank_body = [&](mpi::Communicator& comm) {
      comm.reset_counters();
      // The paper's zero-comm training invariant, enforced two ways: the
      // validator traps any message the moment it is sent (PhaseScope with
      // kForbidden), and the byte counters are re-checked after the fact.
      mpi::PhaseScope phase(comm, "train.zero_comm",
                            mpi::CommPolicy::kForbidden);
      // This rank's share of the task grid, trained back to back — still
      // zero-comm, so over-decomposition never adds traffic.
      for (int t = comm.rank(); t < tasks; t += ranks_) {
        const std::uint64_t sent_before = comm.bytes_sent();
        const std::uint64_t recv_before = comm.bytes_received();
        auto outcome = train_rank(t, resume_all);
        outcome.train_bytes_sent = comm.bytes_sent() - sent_before;
        outcome.train_bytes_received = comm.bytes_received() - recv_before;
        if (outcome.train_bytes_sent != 0) {
          throw std::logic_error(
              "ParallelTrainer: training phase sent data (scheme violated)");
        }
        report.rank_outcomes[static_cast<std::size_t>(t)] = std::move(outcome);
      }
    };
    if (fault_tolerance != nullptr) {
      // Fault-tolerant path: a rank the injector kills is reported rather
      // than rethrown; the survivors finish, then every task the dead rank
      // carried retrains (tasks it completed before dying retrain too — the
      // runs are deterministic, so the repeated work is identical, and the
      // accounting stays simple).
      const mpi::RunOutcome run = env.run_collect(rank_body);
      for (const int r : run.failed_ranks()) {
        const auto& status = run.ranks[static_cast<std::size_t>(r)];
        report.failures.push_back({r, status.epoch, status.step, status.error});
        for (int t = r; t < tasks; t += ranks_) {
          retrain_rank(t, status.error);
        }
      }
    } else {
      env.run(rank_body);
    }
  }
  report.wall_seconds = wall.seconds();
  return report;
}

}  // namespace parpde::core
