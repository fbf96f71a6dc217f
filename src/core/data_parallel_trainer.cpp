#include "core/data_parallel_trainer.hpp"

#include <stdexcept>

#include "data/batcher.hpp"
#include "minimpi/collectives.hpp"
#include "minimpi/environment.hpp"
#include "tensor/ops.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace parpde::core {

namespace {

// Flattens all parameters into one buffer, allreduce-averages it, and writes
// the averaged values back ("the weights are averaged and constitute a new
// network, which is shared among all individual MPI ranks").
void average_parameters(mpi::Communicator& comm,
                        const std::vector<nn::ParamRef>& params) {
  telemetry::Span span("dp.average_parameters", "comm");
  std::vector<float> flat;
  for (const auto& p : params) {
    flat.insert(flat.end(), p.value->values().begin(), p.value->values().end());
  }
  mpi::allreduce<float>(comm, flat, mpi::ReduceOp::kSum);
  const float inv = 1.0f / static_cast<float>(comm.size());
  std::size_t offset = 0;
  for (const auto& p : params) {
    for (std::int64_t i = 0; i < p.value->size(); ++i) {
      (*p.value)[i] = flat[offset++] * inv;
    }
  }
}

}  // namespace

DataParallelTrainer::DataParallelTrainer(TrainConfig config, int ranks,
                                         int sync_every)
    : config_(std::move(config)), ranks_(ranks), sync_every_(sync_every) {
  if (ranks <= 0) throw std::invalid_argument("DataParallelTrainer: bad ranks");
  if (sync_every <= 0) {
    throw std::invalid_argument("DataParallelTrainer: bad sync_every");
  }
}

DataParallelReport DataParallelTrainer::train(
    const data::FrameDataset& dataset) const {
  const auto split = dataset.chronological_split(config_.train_fraction);
  const domain::Partition partition(dataset.height(), dataset.width(), 1, 1);

  // Shard the training pairs round-robin across ranks.
  std::vector<std::vector<std::int64_t>> shards(static_cast<std::size_t>(ranks_));
  for (std::size_t i = 0; i < split.train.size(); ++i) {
    shards[i % static_cast<std::size_t>(ranks_)].push_back(split.train[i]);
  }
  std::size_t min_shard = shards.front().size();
  for (const auto& s : shards) min_shard = std::min(min_shard, s.size());
  if (min_shard == 0) {
    throw std::invalid_argument("DataParallelTrainer: more ranks than samples");
  }

  DataParallelReport report;
  report.ranks = ranks_;
  report.sync_every = sync_every_;

  // Rank threads share the global pool under the total-threads cap (see
  // docs/performance.md); deterministic kernels keep replicas in lockstep.
  util::ThreadPool::configure_global(
      util::ThreadPool::resolve_workers(config_.num_threads, ranks_));

  util::WallTimer wall;
  mpi::Environment env(ranks_);
  env.run([&](mpi::Communicator& comm) {
    const int rank = comm.rank();
    mpi::PhaseScope phase(comm, "dp.train");
    comm.reset_counters();
    const auto& shard = shards[static_cast<std::size_t>(rank)];
    const auto task = make_subdomain_task(dataset.frames(), shard,
                                          partition.block(0, 0), config_);
    // All replicas start from identical weights (seed stream 0), as weight
    // averaging presumes.
    NetworkTrainer trainer(config_, /*seed_stream=*/0);
    const auto params = trainer.model().parameters();

    // Lockstep batch count: every rank must join every averaging round.
    data::Batcher batcher(static_cast<std::int64_t>(shard.size()),
                          config_.batch_size,
                          config_.seed ^ static_cast<std::uint64_t>(rank));
    const std::int64_t lockstep_batches =
        (static_cast<std::int64_t>(min_shard) + config_.batch_size - 1) /
        config_.batch_size;

    util::AccumulatingTimer comm_timer;
    std::uint64_t rounds = 0;
    std::vector<EpochStats> epochs;
    Tensor in;
    Tensor target;
    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
      telemetry::Span epoch_span(
          telemetry::enabled() ? "dp.epoch " + std::to_string(epoch)
                               : std::string(),
          "epoch");
      util::WallTimer epoch_timer;
      const auto batches = batcher.next_epoch();
      double loss_sum = 0.0;
      for (std::int64_t b = 0; b < lockstep_batches; ++b) {
        const auto& batch = batches[static_cast<std::size_t>(b)];
        ops::gather_samples(task.inputs, batch, in);
        ops::gather_samples(task.targets, batch, target);
        {
          // Replica gradient steps are communication-free; only the
          // averaging rounds below may talk.
          mpi::PhaseScope compute_phase(comm, "dp.compute",
                                        mpi::CommPolicy::kForbidden);
          loss_sum += trainer.train_batch(in, target);
        }
        if ((b + 1) % sync_every_ == 0) {
          comm_timer.start();
          average_parameters(comm, params);
          comm_timer.stop();
          ++rounds;
        }
      }
      // Synchronize at epoch end so all replicas agree.
      if (lockstep_batches % sync_every_ != 0) {
        comm_timer.start();
        average_parameters(comm, params);
        comm_timer.stop();
        ++rounds;
      }
      EpochStats stats;
      stats.loss = loss_sum / static_cast<double>(lockstep_batches);
      stats.seconds = epoch_timer.seconds();
      epochs.push_back(stats);
    }

    if (rank == 0) {
      report.epochs = std::move(epochs);
      report.parameters = export_parameters(trainer.model());
      report.comm_seconds = comm_timer.seconds();
      report.sync_rounds = rounds;
    }
    // Total traffic: sum over ranks, accumulated via allreduce on a scalar.
    // Snapshot both sides before the reduction itself adds traffic.
    std::vector<std::uint64_t> bytes = {comm.bytes_sent(),
                                        comm.bytes_received()};
    mpi::allreduce<std::uint64_t>(comm, bytes, mpi::ReduceOp::kSum);
    if (rank == 0) {
      report.comm_bytes = bytes[0];
      report.comm_bytes_received = bytes[1];
    }
  });
  report.wall_seconds = wall.seconds();
  return report;
}

}  // namespace parpde::core
