#include "core/inference.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>

#include "backend/kernel_backend.hpp"
#include "domain/exchange.hpp"
#include "domain/halo.hpp"
#include "elastic/rollout.hpp"
#include "minimpi/collectives.hpp"
#include "minimpi/environment.hpp"
#include "nn/forward_plan.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace parpde::core {

namespace {

// Per-rank state of the deferred (double-buffered) frame recording: rank 0
// stages a copy of its own interior when a recorded step is produced and
// collects the non-root blocks one recorded step later, so the strip sends
// overlap the next step's compute.
struct DeferredGather {
  struct Round {
    std::size_t frame_index = 0;
    int stage_slot = 0;
  };
  std::deque<Round> pending;
  Tensor stages[2];
  int next_slot = 0;
};

}  // namespace

RolloutResult parallel_rollout(const TrainConfig& config,
                               const ParallelTrainReport& trained,
                               const Tensor& initial, int steps,
                               const domain::HaloOptions& halo_options) {
  RolloutOptions options;
  options.halo = halo_options;
  return parallel_rollout(config, trained, initial, steps, options);
}

RolloutResult parallel_rollout(const TrainConfig& config,
                               const ParallelTrainReport& trained,
                               const Tensor& initial, int steps,
                               const RolloutOptions& options) {
  if (options.elastic.enabled) {
    // Elastic runtime: tasks decoupled from ranks, lease-based failure
    // detection, live adoption of orphaned subdomains. The classic engine
    // below is untouched when the flag is off.
    return elastic::elastic_rollout(config, trained, initial, steps, options);
  }
  if (config.border == BorderMode::kValidInner) {
    throw std::invalid_argument(
        "parallel_rollout: valid-inner mode cannot roll out (output loses the "
        "subdomain rim)");
  }
  if (initial.ndim() != 3) {
    throw std::invalid_argument("parallel_rollout: initial frame must be [C,H,W]");
  }
  if (steps <= 0) throw std::invalid_argument("parallel_rollout: steps must be > 0");

  const int ranks = trained.ranks;
  const domain::Partition partition(initial.dim(1), initial.dim(2),
                                    trained.dims.px, trained.dims.py);
  const std::int64_t halo = config.border == BorderMode::kHaloPad
                                ? config.network.receptive_halo()
                                : 0;
  const backend::KernelBackend* bk =
      options.backend != nullptr ? options.backend : &backend::blocked_f32();

  // A step is recorded every `record_every` steps, plus always the last one.
  auto recorded = [&](int step) {
    if (options.record_every <= 0) return false;
    return (step + 1) % options.record_every == 0 || step + 1 == steps;
  };
  std::vector<int> recorded_steps;
  for (int s = 0; s < steps; ++s) {
    if (recorded(s)) recorded_steps.push_back(s);
  }

  RolloutResult result;
  result.backend = bk->name();
  result.recorded_steps = recorded_steps;
  result.frames.resize(recorded_steps.size());
  result.step_seconds.resize(static_cast<std::size_t>(steps), 0.0);
  std::vector<double> comm_seconds(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> compute_seconds(static_cast<std::size_t>(ranks), 0.0);
  std::vector<std::uint64_t> steady_allocs(static_cast<std::size_t>(ranks), 0);
  std::vector<std::uint64_t> halo_bytes(static_cast<std::size_t>(ranks), 0);
  std::vector<std::uint64_t> halo_bytes_recv(static_cast<std::size_t>(ranks), 0);
  std::vector<std::uint64_t> total_sent(static_cast<std::size_t>(ranks), 0);
  std::vector<std::uint64_t> total_recv(static_cast<std::size_t>(ranks), 0);
  std::vector<domain::BorderHealth> health(static_cast<std::size_t>(ranks));
  std::vector<std::uint64_t> nonfinite(static_cast<std::size_t>(ranks), 0);
  std::vector<int> first_bad_step(static_cast<std::size_t>(ranks), -1);

  // The health monitor forwards the residual-probe switch into the halo
  // exchange and takes the int8 saturation count as a counter delta around
  // the whole run (quantize_u8 accounts per chunk into the global counter).
  domain::HaloOptions halo_options = options.halo;
  halo_options.probe_residuals = options.monitor_health;
  static telemetry::Counter& saturated =
      telemetry::counter("backend.int8.saturated");
  static telemetry::Counter& nonfinite_counter =
      telemetry::counter("health.nonfinite_values");
  const std::uint64_t saturated_before = saturated.value();

  mpi::Environment env(ranks);
  env.run([&](mpi::Communicator& comm) {
    const int rank = comm.rank();
    mpi::PhaseScope phase(comm, "rollout");
    mpi::CartComm cart(comm, trained.dims.px, trained.dims.py);

    // Rebuild this rank's trained network.
    util::Rng rng(config.seed);
    auto model = build_model(config.network, config.border, rng);
    import_parameters(
        *model, trained.rank_outcomes[static_cast<std::size_t>(rank)].parameters);

    const domain::BlockRange block = partition.block(cart.cx(), cart.cy());
    const std::int64_t bh = block.height();
    const std::int64_t bw = block.width();
    Tensor interior = domain::extract_interior(initial, block);
    const std::int64_t c = interior.dim(0);

    // Pre-size everything the steady-state step touches: the plan's
    // activations + im2col workspaces for the geometry it will see (the
    // halo-padded tile), the halo staging, and the assembly buffer.
    nn::ForwardPlan plan(*model, c, bh + 2 * halo, bw + 2 * halo, bk);
    if (plan.needs_calibration()) {
      // int8 activation-scale calibration: one fp32 reference pass over the
      // step-0 input at the geometry the plan will see. The interior sits in
      // a zero-extended halo frame (the physical-boundary treatment), so the
      // pass is identical at any thread count.
      if (halo > 0) {
        Tensor calib({c, bh + 2 * halo, bw + 2 * halo});
        calib.fill(0.0f);
        domain::copy_window(calib, halo, halo, interior.data(), c, bh, bw);
        plan.calibrate(calib.data(), calib.dim(1), calib.dim(2));
      } else {
        plan.calibrate(interior.data(), bh, bw);
      }
    }
    std::optional<domain::HaloExchange> exchange;
    if (halo > 0) {
      exchange.emplace(cart, partition, halo, halo_options,
                       &health[static_cast<std::size_t>(rank)]);
    }
    Tensor padded;             // [c, bh + 2 halo, bw + 2 halo]
    Tensor next({c, bh, bw});  // assembled step output
    DeferredGather gather;

    static telemetry::Histogram& step_latency =
        telemetry::histogram("rollout.step_seconds");
    static telemetry::Counter& steady_counter =
        telemetry::counter("inference.steady_state_allocs");

    util::AccumulatingTimer comm_timer;
    util::AccumulatingTimer compute_timer;
    comm.reset_counters();
    std::uint64_t exchange_bytes = 0;
    std::uint64_t exchange_bytes_recv = 0;
    std::uint64_t warm_growths = 0;  // growth baseline after the first step

    for (int step = 0; step < steps; ++step) {
      telemetry::Span step_span("rollout.step", "rollout");
      util::WallTimer step_timer;

      // The plan's input: the halo-padded tile, or the bare interior when
      // the border mode exchanges nothing (zero-pad, deconv).
      const Tensor* input = &interior;
      if (exchange) {
        // Sec. III: "extra data points must be received from the neighboring
        // processes" — post this step's border strips, then receive the
        // neighbours' into the padded tile.
        const std::uint64_t sent_before = comm.bytes_sent();
        const std::uint64_t recv_before = comm.bytes_received();
        exchange->begin(interior, &comm_timer);
        exchange->finish(interior, padded, &comm_timer);
        exchange_bytes += comm.bytes_sent() - sent_before;
        exchange_bytes_recv += comm.bytes_received() - recv_before;
        input = &padded;
      }
      compute_timer.start();
      {
        telemetry::Span forward_span("rollout.forward", "rollout");
        mpi::PhaseScope forward_phase(comm, "rollout.forward",
                                      mpi::CommPolicy::kForbidden);
        const nn::ForwardPlan::Output out =
            plan.run(input->data(), input->dim(1), input->dim(2));
        domain::copy_window(next, 0, 0, out.data, out.channels, bh, bw);
      }
      compute_timer.stop();
      std::swap(interior, next);

      // Health monitor: scan this step's output for NaN/Inf. `interior`
      // holds the freshly computed step here. One pass over the rank's own
      // tile, no allocation; its cost sits inside the rollout_64_int8
      // benchmark workload's step time, which runs with the monitor on.
      if (options.monitor_health) {
        const std::uint64_t bad =
            ops::count_nonfinite(interior.data(), interior.size());
        if (bad > 0) {
          nonfinite[static_cast<std::size_t>(rank)] += bad;
          nonfinite_counter.add(bad);
          if (first_bad_step[static_cast<std::size_t>(rank)] < 0) {
            first_bad_step[static_cast<std::size_t>(rank)] = step;
          }
        }
      }

      // Gather the predicted frame for validation/recording (not part of the
      // scheme's communication cost; a production run keeps fields
      // distributed — record_every <= 0 skips this entirely). Rank 0's
      // collection is deferred by one recorded step so the non-root strip
      // sends overlap the next step's compute.
      if (recorded(step)) {
        telemetry::Span gather_span("rollout.gather", "rollout");
        const std::size_t frame_index = static_cast<std::size_t>(
            std::lower_bound(recorded_steps.begin(), recorded_steps.end(), step) -
            recorded_steps.begin());
        domain::gather_field_send(cart, interior);
        if (rank == 0) {
          if (gather.pending.size() == 2) {
            const DeferredGather::Round round = gather.pending.front();
            gather.pending.pop_front();
            domain::gather_field_collect(cart, partition,
                                         gather.stages[round.stage_slot],
                                         result.frames[round.frame_index]);
          }
          gather.stages[gather.next_slot] = interior;
          gather.pending.push_back({frame_index, gather.next_slot});
          gather.next_slot ^= 1;
        }
      }
      if (step == 0) warm_growths = plan.growth_events();
      if (rank == 0) {
        const double seconds = step_timer.seconds();
        result.step_seconds[static_cast<std::size_t>(step)] = seconds;
        step_latency.observe(seconds);
      }
    }
    // Drain the deferred recording rounds.
    while (rank == 0 && !gather.pending.empty()) {
      const DeferredGather::Round round = gather.pending.front();
      gather.pending.pop_front();
      domain::gather_field_collect(cart, partition,
                                   gather.stages[round.stage_slot],
                                   result.frames[round.frame_index]);
    }

    const std::uint64_t steady = plan.growth_events() - warm_growths;
    steady_allocs[static_cast<std::size_t>(rank)] = steady;
    steady_counter.add(steady);
    comm_seconds[static_cast<std::size_t>(rank)] = comm_timer.seconds();
    compute_seconds[static_cast<std::size_t>(rank)] = compute_timer.seconds();
    halo_bytes[static_cast<std::size_t>(rank)] = exchange_bytes;
    halo_bytes_recv[static_cast<std::size_t>(rank)] = exchange_bytes_recv;
    total_sent[static_cast<std::size_t>(rank)] = comm.bytes_sent();
    total_recv[static_cast<std::size_t>(rank)] = comm.bytes_received();
  });

  for (int r = 0; r < ranks; ++r) {
    const domain::BorderHealth& h = health[static_cast<std::size_t>(r)];
    if (h.any()) {
      result.degraded_borders += h.count();
      result.degraded_detail.push_back("rank " + std::to_string(r) + ": " +
                                       h.describe());
    }
    result.health.nonfinite_values += nonfinite[static_cast<std::size_t>(r)];
    const int bad_step = first_bad_step[static_cast<std::size_t>(r)];
    if (bad_step >= 0 && (result.health.first_nonfinite_step < 0 ||
                          bad_step < result.health.first_nonfinite_step)) {
      result.health.first_nonfinite_step = bad_step;
      result.health.first_nonfinite_rank = r;
    }
    result.health.max_interface_residual =
        std::max(result.health.max_interface_residual, h.max_residual());
    result.comm_seconds =
        std::max(result.comm_seconds, comm_seconds[static_cast<std::size_t>(r)]);
    result.compute_seconds = std::max(
        result.compute_seconds, compute_seconds[static_cast<std::size_t>(r)]);
    result.steady_state_allocs += steady_allocs[static_cast<std::size_t>(r)];
    result.halo_bytes += halo_bytes[static_cast<std::size_t>(r)];
    result.halo_bytes_received += halo_bytes_recv[static_cast<std::size_t>(r)];
    result.bytes_sent += total_sent[static_cast<std::size_t>(r)];
    result.bytes_received += total_recv[static_cast<std::size_t>(r)];
  }
  result.health.quant_saturations = saturated.value() - saturated_before;
  result.health.degraded_borders = result.degraded_borders;
  return result;
}

SubdomainEnsemble::SubdomainEnsemble(const TrainConfig& config,
                                     const ParallelTrainReport& trained,
                                     std::int64_t grid_h, std::int64_t grid_w)
    : config_(config),
      partition_(grid_h, grid_w, trained.dims.px, trained.dims.py),
      halo_(config.border == BorderMode::kHaloPad
                ? config.network.receptive_halo()
                : 0) {
  models_.reserve(trained.rank_outcomes.size());
  plans_.reserve(trained.rank_outcomes.size());
  for (std::size_t r = 0; r < trained.rank_outcomes.size(); ++r) {
    util::Rng rng(config.seed);
    auto model = build_model(config.network, config.border, rng);
    import_parameters(*model, trained.rank_outcomes[r].parameters);
    const auto block = partition_.block_of_rank(static_cast<int>(r));
    plans_.push_back(std::make_unique<nn::ForwardPlan>(
        *model, config.network.channels.front(), block.height() + 2 * halo_,
        block.width() + 2 * halo_));
    models_.push_back(std::move(model));
  }
  inputs_.resize(models_.size());
}

SubdomainEnsemble::~SubdomainEnsemble() = default;

Tensor SubdomainEnsemble::predict(const Tensor& frame) const {
  if (frame.ndim() != 3 || frame.dim(1) != partition_.grid_h() ||
      frame.dim(2) != partition_.grid_w()) {
    throw std::invalid_argument("SubdomainEnsemble::predict: bad frame shape");
  }
  Tensor assembled({frame.dim(0), frame.dim(1), frame.dim(2)});
  // Subdomains write disjoint blocks of `assembled` and touch only their own
  // model/plan/staging, so fanning them out is bit-deterministic; the nested
  // kernels inside each forward run inline on the claiming thread.
  util::ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(models_.size()), 1,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t r = begin; r < end; ++r) {
          const auto block = partition_.block_of_rank(static_cast<int>(r));
          const auto i = static_cast<std::size_t>(r);
          domain::extract_with_halo_into(frame, block, halo_, inputs_[i]);
          const nn::ForwardPlan::Output out = plans_[i]->run(
              inputs_[i].data(), inputs_[i].dim(1), inputs_[i].dim(2));
          domain::copy_window(assembled, block.h0, block.w0, out.data,
                              out.channels, block.height(), block.width());
        }
      });
  return assembled;
}

std::vector<Tensor> sequential_rollout(NetworkTrainer& trainer,
                                       const Tensor& initial, int steps) {
  if (initial.ndim() != 3) {
    throw std::invalid_argument("sequential_rollout: initial frame must be [C,H,W]");
  }
  std::vector<Tensor> frames;
  frames.reserve(static_cast<std::size_t>(steps));
  Tensor current = initial;
  const std::int64_t halo = trainer.config().border == BorderMode::kHaloPad
                                ? trainer.config().network.receptive_halo()
                                : 0;
  for (int step = 0; step < steps; ++step) {
    if (halo > 0) {
      // The monolithic model in halo-pad mode expects a zero-extended frame
      // (the physical-boundary treatment used during training). Reshape in
      // place around the pad — the old reshaped() round-trips copied the
      // whole frame twice per step.
      current.reshape({1, current.dim(0), current.dim(1), current.dim(2)});
      Tensor padded = ops::pad_nchw(current, halo);
      current.reshape({current.dim(1), current.dim(2), current.dim(3)});
      padded.reshape({padded.dim(1), padded.dim(2), padded.dim(3)});
      current = trainer.predict(padded);
    } else {
      current = trainer.predict(current);
    }
    frames.push_back(current);
  }
  return frames;
}

std::unique_ptr<nn::Sequential> rebuild_model(
    const TrainConfig& config, const std::vector<Tensor>& parameters) {
  // The rng only shapes the throwaway init; import_parameters overwrites
  // every value, so the seed does not influence the rebuilt network.
  util::Rng rng(config.seed);
  auto model = build_model(config.network, config.border, rng);
  import_parameters(*model, parameters);
  return model;
}

}  // namespace parpde::core
