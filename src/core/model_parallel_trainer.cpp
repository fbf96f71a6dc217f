#include "core/model_parallel_trainer.hpp"

#include <cstring>
#include <stdexcept>

#include "data/batcher.hpp"
#include "minimpi/collectives.hpp"
#include "minimpi/environment.hpp"
#include "nn/conv2d.hpp"
#include "tensor/ops.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace parpde::core {

namespace {

// Start of chunk `c` when splitting `total` into `parts` (balanced).
std::int64_t chunk_start(std::int64_t total, int parts, int c) {
  const std::int64_t base = total / parts;
  const std::int64_t rem = total % parts;
  return static_cast<std::int64_t>(c) * base +
         std::min<std::int64_t>(c, rem);
}

// Copies output-channel rows [c0, c1) of a full conv weight/bias into a
// slice-sized tensor.
Tensor slice_weight(const Tensor& full, std::int64_t c0, std::int64_t c1) {
  const std::int64_t row = full.size() / full.dim(0);
  Tensor out({c1 - c0, full.dim(1), full.dim(2), full.dim(3)});
  std::memcpy(out.data(), full.data() + c0 * row,
              static_cast<std::size_t>((c1 - c0) * row) * sizeof(float));
  return out;
}

Tensor slice_bias(const Tensor& full, std::int64_t c0, std::int64_t c1) {
  Tensor out({c1 - c0});
  std::memcpy(out.data(), full.data() + c0,
              static_cast<std::size_t>(c1 - c0) * sizeof(float));
  return out;
}

}  // namespace

ModelParallelTrainer::ModelParallelTrainer(TrainConfig config, int ranks)
    : config_(std::move(config)), ranks_(ranks) {
  if (ranks <= 0) throw std::invalid_argument("ModelParallelTrainer: bad ranks");
  if (config_.border != BorderMode::kZeroPad) {
    throw std::invalid_argument(
        "ModelParallelTrainer: only zero-pad border mode is supported");
  }
  for (std::size_t l = 1; l < config_.network.channels.size(); ++l) {
    if (config_.network.channels[l] < ranks) {
      throw std::invalid_argument(
          "ModelParallelTrainer: more ranks than output channels in layer " +
          std::to_string(l));
    }
  }
}

ModelParallelReport ModelParallelTrainer::train(
    const data::FrameDataset& dataset) const {
  const auto split = dataset.chronological_split(config_.train_fraction);
  const domain::Partition partition(dataset.height(), dataset.width(), 1, 1);
  const auto task = make_subdomain_task(dataset.frames(), split.train,
                                        partition.block(0, 0), config_);
  const auto& net = config_.network;
  const int layers = net.layers();

  ModelParallelReport report;
  report.ranks = ranks_;
  // Assembled full parameters, filled by rank 0 at the end (w, b per layer).
  report.parameters.resize(static_cast<std::size_t>(2 * layers));

  util::WallTimer wall;
  mpi::Environment env(ranks_);
  env.run([&](mpi::Communicator& comm) {
    const int rank = comm.rank();
    mpi::PhaseScope phase(comm, "mp.train");
    comm.reset_counters();
    util::AccumulatingTimer comm_timer;

    // Shared-seed monolithic init, sliced per rank: the distributed network
    // is parameter-identical to build_model(..., seed_stream 0).
    util::Rng rng = util::Rng(config_.seed).fork(0);
    auto reference = build_model(net, BorderMode::kZeroPad, rng);
    const auto ref_params = export_parameters(*reference);

    std::vector<std::unique_ptr<nn::Conv2d>> slices;
    std::vector<std::int64_t> c0(static_cast<std::size_t>(layers));
    std::vector<std::int64_t> c1(static_cast<std::size_t>(layers));
    for (int l = 0; l < layers; ++l) {
      const std::int64_t cout = net.channels[static_cast<std::size_t>(l) + 1];
      c0[static_cast<std::size_t>(l)] = chunk_start(cout, ranks_, rank);
      c1[static_cast<std::size_t>(l)] = chunk_start(cout, ranks_, rank + 1);
      auto conv = std::make_unique<nn::Conv2d>(
          net.channels[static_cast<std::size_t>(l)],
          c1[static_cast<std::size_t>(l)] - c0[static_cast<std::size_t>(l)],
          net.kernel, /*pad=*/-1);
      conv->weight() = slice_weight(ref_params[static_cast<std::size_t>(2 * l)],
                                    c0[static_cast<std::size_t>(l)],
                                    c1[static_cast<std::size_t>(l)]);
      conv->bias() = slice_bias(ref_params[static_cast<std::size_t>(2 * l) + 1],
                                c0[static_cast<std::size_t>(l)],
                                c1[static_cast<std::size_t>(l)]);
      slices.push_back(std::move(conv));
    }
    std::vector<nn::ParamRef> my_params;
    for (auto& conv : slices) {
      for (auto& p : conv->parameters()) my_params.push_back(p);
    }
    auto optimizer =
        nn::make_optimizer(config_.optimizer, my_params, config_.learning_rate);
    auto loss_fn = nn::make_loss(config_.loss);

    // Allgathers each rank's [N, cs, H, W] slice into the full [N, C, H, W]
    // activation (rank blocks are contiguous channel ranges).
    auto assemble = [&](const Tensor& mine, std::int64_t full_channels,
                        int layer) {
      comm_timer.start();
      telemetry::Span span("mp.allgather", "comm");
      const auto flat = mpi::allgather<float>(comm, mine.values());
      span.finish();
      comm_timer.stop();
      const std::int64_t n = mine.dim(0), h = mine.dim(2), w = mine.dim(3);
      Tensor full({n, full_channels, h, w});
      std::size_t offset = 0;
      for (int r = 0; r < ranks_; ++r) {
        const std::int64_t rc0 = chunk_start(full_channels, ranks_, r);
        const std::int64_t rc1 = chunk_start(full_channels, ranks_, r + 1);
        for (std::int64_t in = 0; in < n; ++in) {
          float* dst = full.data() + (in * full_channels + rc0) * h * w;
          const std::size_t count =
              static_cast<std::size_t>((rc1 - rc0) * h * w);
          std::memcpy(dst, flat.data() + offset, count * sizeof(float));
          offset += count;
        }
      }
      (void)layer;
      return full;
    };

    const float slope = net.leaky_slope;
    std::vector<Tensor> pre_activation(static_cast<std::size_t>(layers));

    auto forward = [&](const Tensor& x) {
      Tensor h = x;
      for (int l = 0; l < layers; ++l) {
        const Tensor mine = slices[static_cast<std::size_t>(l)]->forward(h);
        Tensor full = assemble(mine, net.channels[static_cast<std::size_t>(l) + 1], l);
        const bool act = l + 1 < layers || net.final_activation;
        if (act) {
          pre_activation[static_cast<std::size_t>(l)] = full;
          for (std::int64_t i = 0; i < full.size(); ++i) {
            if (full[i] < 0.0f) full[i] *= slope;
          }
        } else {
          pre_activation[static_cast<std::size_t>(l)] = Tensor{};
        }
        h = std::move(full);
      }
      return h;
    };

    auto backward = [&](Tensor dy) {
      for (int l = layers - 1; l >= 0; --l) {
        const Tensor& pre = pre_activation[static_cast<std::size_t>(l)];
        if (!pre.empty()) {
          for (std::int64_t i = 0; i < dy.size(); ++i) {
            if (pre[i] < 0.0f) dy[i] *= slope;
          }
        }
        // This rank backpropagates through its slice of the output channels.
        const std::int64_t cout = net.channels[static_cast<std::size_t>(l) + 1];
        const std::int64_t n = dy.dim(0), h = dy.dim(2), w = dy.dim(3);
        const std::int64_t lc0 = c0[static_cast<std::size_t>(l)];
        const std::int64_t lc1 = c1[static_cast<std::size_t>(l)];
        Tensor dy_slice({n, lc1 - lc0, h, w});
        for (std::int64_t in = 0; in < n; ++in) {
          std::memcpy(dy_slice.data() + in * (lc1 - lc0) * h * w,
                      dy.data() + (in * cout + lc0) * h * w,
                      static_cast<std::size_t>((lc1 - lc0) * h * w) *
                          sizeof(float));
        }
        Tensor dx = slices[static_cast<std::size_t>(l)]->backward(dy_slice);
        // Sum the per-slice input-gradient contributions across ranks.
        comm_timer.start();
        telemetry::Span span("mp.allreduce", "comm");
        mpi::allreduce<float>(comm, dx.values(), mpi::ReduceOp::kSum);
        span.finish();
        comm_timer.stop();
        dy = std::move(dx);
      }
    };

    // Identical batch schedule on every rank (model parallelism shares all
    // the data).
    data::Batcher batcher(task.inputs.dim(0), config_.batch_size, config_.seed);
    std::vector<EpochStats> epochs;
    Tensor in;
    Tensor target;
    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
      telemetry::Span epoch_span(
          telemetry::enabled() ? "mp.epoch " + std::to_string(epoch)
                               : std::string(),
          "epoch");
      util::WallTimer epoch_timer;
      double loss_sum = 0.0;
      std::int64_t batches = 0;
      for (const auto& batch : batcher.next_epoch()) {
        ops::gather_samples(task.inputs, batch, in);
        ops::gather_samples(task.targets, batch, target);
        optimizer->zero_grad();
        const Tensor prediction = forward(in);
        Tensor grad;
        loss_sum += loss_fn->compute(prediction, target, &grad);
        backward(std::move(grad));
        optimizer->step();
        ++batches;
      }
      EpochStats stats;
      stats.loss = loss_sum / static_cast<double>(batches);
      stats.seconds = epoch_timer.seconds();
      epochs.push_back(stats);
    }

    // Assemble the full parameters on rank 0.
    for (int l = 0; l < layers; ++l) {
      const std::int64_t cout = net.channels[static_cast<std::size_t>(l) + 1];
      const auto w_all = mpi::gather<float>(
          comm, slices[static_cast<std::size_t>(l)]->weight().values(), 0);
      const auto b_all = mpi::gather<float>(
          comm, slices[static_cast<std::size_t>(l)]->bias().values(), 0);
      if (rank == 0) {
        report.parameters[static_cast<std::size_t>(2 * l)] = Tensor::from(
            {cout, net.channels[static_cast<std::size_t>(l)], net.kernel,
             net.kernel},
            std::vector<float>(w_all.begin(), w_all.end()));
        report.parameters[static_cast<std::size_t>(2 * l) + 1] =
            Tensor::from({cout}, std::vector<float>(b_all.begin(), b_all.end()));
      }
    }
    if (rank == 0) {
      report.epochs = std::move(epochs);
      report.comm_seconds = comm_timer.seconds();
    }
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
