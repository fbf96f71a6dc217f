#include "core/inference.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>

#include "backend/kernel_backend.hpp"
#include "domain/exchange.hpp"
#include "domain/halo.hpp"
#include "elastic/assignment.hpp"
#include "elastic/rollout.hpp"
#include "elastic/state_checkpoint.hpp"
#include "minimpi/environment.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/tags.hpp"
#include "nn/forward_plan.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace parpde::core {

namespace {

// One subdomain task: its block, and — while this rank hosts it — its
// model, pre-sized plan, field and border health.
struct TaskState {
  domain::BlockRange block{};
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<nn::ForwardPlan> plan;
  Tensor interior;  // [c, bh, bw], the task's current field
  Tensor next;      // assembled step output
  Tensor padded;    // [c, bh + 2 halo, bw + 2 halo], the plan's input
  domain::BorderHealth health;
};

// What one rank contributes to the RolloutResult.
struct RankTally {
  double comm_seconds = 0.0;
  double compute_seconds = 0.0;
  std::uint64_t halo_bytes = 0;
  std::uint64_t halo_bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t nonfinite = 0;
  int first_bad_step = -1;
  // Elastic recovery; all zero unless a peer died.
  int recoveries = 0;
  int adopted = 0;
  int detection_step = -1;
  double detection_seconds = 0.0;
  double rebalance_seconds = 0.0;
  int epoch = 0;
  int blip = 0;
};

}  // namespace

RolloutResult parallel_rollout(const TrainConfig& config,
                               const ParallelTrainReport& trained,
                               const Tensor& initial, int steps,
                               const RolloutOptions& options) {
  if (config.border == BorderMode::kValidInner) {
    throw std::invalid_argument(
        "parallel_rollout: valid-inner mode cannot roll out (output loses the "
        "subdomain rim)");
  }
  if (initial.ndim() != 3) {
    throw std::invalid_argument("parallel_rollout: initial frame must be [C,H,W]");
  }
  if (steps <= 0) throw std::invalid_argument("parallel_rollout: steps must be > 0");

  const ElasticOptions& el = options.elastic;
  const int tasks = trained.ranks;
  const int per_rank = el.enabled ? el.tasks_per_rank : 1;
  if (per_rank < 1 || tasks % per_rank != 0) {
    throw std::invalid_argument(
        "parallel_rollout: tasks_per_rank must divide the trained report's "
        "rank count (" +
        std::to_string(tasks) + ")");
  }
  if (el.enabled && tasks > mpi::tags::kMaxElasticTasks) {
    throw std::invalid_argument("parallel_rollout: more tasks than the "
                                "kElastic tag range can address");
  }
  const int px = trained.dims.px;
  if (px * trained.dims.py != tasks) {
    throw std::invalid_argument("parallel_rollout: trained dims do not tile "
                                "the task count");
  }
  const int nranks = tasks / per_rank;
  const domain::Partition partition(initial.dim(1), initial.dim(2), px,
                                    trained.dims.py);
  const std::int64_t halo = config.border == BorderMode::kHaloPad
                                ? config.network.receptive_halo()
                                : 0;
  // Checked before any rank starts: a rank failing inside its exchange
  // would leave its neighbours waiting out their receive budgets.
  for (int t = 0; t < tasks; ++t) {
    const domain::BlockRange b = partition.block(t % px, t / px);
    if (halo > b.height() || halo > b.width()) {
      throw std::invalid_argument("parallel_rollout: halo exceeds a subdomain "
                                  "block (too many subdomains for this grid)");
    }
  }
  const std::int64_t chans = initial.dim(0);
  const backend::KernelBackend* bk =
      options.backend != nullptr ? options.backend : &backend::blocked_f32();
  const bool snapshots =
      el.enabled && el.state_every > 0 && !el.state_dir.empty();

  // A step is recorded every `record_every` steps, plus always the last one.
  auto recorded = [&](int step) {
    if (options.record_every <= 0) return false;
    return (step + 1) % options.record_every == 0 || step + 1 == steps;
  };

  RolloutResult result;
  result.backend = bk->name();
  result.step_seconds.resize(static_cast<std::size_t>(steps), 0.0);
  std::vector<RankTally> tally(static_cast<std::size_t>(nranks));
  // Each task's border state at the end, written by its last host.
  std::vector<domain::BorderHealth> final_health(
      static_cast<std::size_t>(tasks));

  // The health monitor forwards the `probe_residuals` switch into the halo
  // exchange and takes the int8 saturation count as a counter delta around
  // the whole run (the int8 quantizer and epilogues account per chunk into
  // the global counter).
  domain::HaloOptions halo_options = options.halo;
  halo_options.probe_residuals = options.monitor_health;
  static telemetry::Counter& saturated =
      telemetry::counter("backend.int8.saturated");
  static telemetry::Counter& nonfinite_counter =
      telemetry::counter("health.nonfinite_values");
  const std::uint64_t saturated_before = saturated.value();

  const auto body = [&](mpi::Communicator& comm) {
    const int rank = comm.rank();
    RankTally& mine = tally[static_cast<std::size_t>(rank)];
    mpi::PhaseScope phase(comm, "rollout");
    static telemetry::Histogram& step_latency =
        telemetry::histogram("rollout.step_seconds");
    static telemetry::Counter& adoptions_counter =
        telemetry::counter("recover.adoptions");
    static telemetry::Gauge& epoch_gauge =
        telemetry::gauge("recover.assignment_epoch");
    static telemetry::Histogram& rebalance_hist =
        telemetry::histogram("recover.rebalance_seconds");
    static telemetry::Histogram& detection_hist =
        telemetry::histogram("recover.detection_seconds");

    // Geometry is keyed on task ids; with elastic off, task t is rank t.
    std::vector<TaskState> task(static_cast<std::size_t>(tasks));
    for (int t = 0; t < tasks; ++t) {
      task[static_cast<std::size_t>(t)].block = partition.block(t % px, t / px);
    }

    // Builds (or rebuilds, on adoption) a task's model, plan and initial
    // field. Int8 calibration is one fp32 reference pass over the *initial*
    // interior in a zero-extended halo frame (the physical-boundary
    // treatment): identical at any thread count, and an adopted task
    // installs the exact activation scales its first host calibrated.
    auto activate = [&](int t) {
      TaskState& ts = task[static_cast<std::size_t>(t)];
      ts.model = rebuild_model(
          config,
          trained.rank_outcomes[static_cast<std::size_t>(t)].parameters);
      ts.interior = domain::extract_interior(initial, ts.block);
      const std::int64_t bh = ts.block.height();
      const std::int64_t bw = ts.block.width();
      ts.plan = std::make_unique<nn::ForwardPlan>(
          *ts.model, chans, bh + 2 * halo, bw + 2 * halo, bk);
      if (ts.plan->needs_calibration()) {
        Tensor calib({chans, bh + 2 * halo, bw + 2 * halo});
        domain::copy_window(calib, halo, halo, ts.interior.data(), chans, bh,
                            bw);
        ts.plan->calibrate(calib.data(), calib.dim(1), calib.dim(2));
      }
      if (ts.next.ndim() != 3 || ts.next.dim(1) != bh || ts.next.dim(2) != bw) {
        ts.next = Tensor({chans, bh, bw});
      }
    };

    // Build the tasks this rank starts with (task t starts on rank
    // t % nranks, the Assignment's epoch-0 layout) before allocating any
    // bookkeeping: rank threads are new on every call, and small blocks
    // allocated ahead of these buffers have made peak RSS over repeated
    // calls bimodal through glibc's per-thread arena reuse (+60 MiB on
    // rollout_64_int8 while rank 0 still kept every recorded frame).
    for (int t = rank; t < tasks; t += nranks) activate(t);
    elastic::Assignment assign(tasks, nranks);
    std::vector<char> live(static_cast<std::size_t>(nranks), 1);
    std::vector<int> owned;  // tasks hosted here, ascending id

    // One halo exchange for every hosted task. Without elastic, strips keep
    // the kHalo travel tags; elastic strips are addressed to tasks.
    std::optional<domain::HaloExchange> exchange;
    if (halo > 0) {
      exchange.emplace(comm, partition, halo, halo_options, el.enabled);
    }
    auto place = [&] {
      owned = assign.tasks_of(rank);
      if (!exchange) return;
      std::vector<domain::HaloExchange::Tile> tiles;
      for (const int t : owned) {
        TaskState& ts = task[static_cast<std::size_t>(t)];
        tiles.push_back({t, &ts.interior, &ts.padded, &ts.health});
      }
      exchange->place(std::move(tiles), assign.owners());
    };
    place();

    // Deferred, double-buffered frame recording. Every rank posts its tasks'
    // interiors on kFieldGather in ascending task order when a recorded step
    // is produced; rank 0 stages copies of its own blocks and collects the
    // others', by task in the same order (FIFO per channel), with up to two
    // recorded rounds in flight, so their sends overlap the following steps'
    // compute. Rounds are collected in step order into one full-grid buffer
    // that each finished frame leaves only through the on_frame sink, so
    // rank 0 holds one frame however many steps are recorded.
    struct Round {
      int step = 0;
      int slot = 0;
    };
    std::deque<Round> pending;      // rank 0: rounds with blocks in flight
    std::vector<Tensor> stage[2];   // rank 0: its blocks of a round, by task
    int next_slot = 0;
    Tensor full;                    // rank 0: the frame being collected
    std::vector<float> strip;       // rank 0: one received block, staged
    auto collect = [&] {
      const Round round = pending.front();
      pending.pop_front();
      if (full.ndim() != 3) {
        full = Tensor({chans, partition.grid_h(), partition.grid_w()});
      }
      const Tensor* own = stage[round.slot].data();
      for (int t = 0; t < tasks; ++t) {
        const domain::BlockRange& b = task[static_cast<std::size_t>(t)].block;
        const int src = assign.owner(t);
        if (!live[static_cast<std::size_t>(src)]) {
          // A dead, unadopted task leaves a zero hole.
          domain::zero_region(full, b.h0, b.height(), b.w0, b.width());
        } else if (src == 0) {
          domain::copy_window(full, b.h0, b.w0, (own++)->data(), chans,
                              b.height(), b.width());
        } else {
          domain::gather_block(comm, src, b, full, strip);
        }
      }
      if (options.on_frame) options.on_frame(round.step, full);
    };
    auto post = [&](int step) {
      if (rank != 0) {
        for (const int t : owned) {
          comm.send<float>(0, mpi::tags::kFieldGather.base,
                           task[static_cast<std::size_t>(t)].interior.values());
        }
        return;
      }
      if (pending.size() == 2) collect();
      std::vector<Tensor>& own = stage[next_slot];
      own.resize(owned.size());
      for (std::size_t i = 0; i < owned.size(); ++i) {
        own[i] = task[static_cast<std::size_t>(owned[i])].interior;
      }
      pending.push_back({step, next_slot});
      next_slot ^= 1;
    };

    // Elastic recovery. Every survivor runs this with the identical failed
    // set at the identical step (the all-to-all heartbeat barrier guarantees
    // it), so the rebalanced map and the rollback line agree everywhere with
    // no coordination. Returns the step to resume from: the rolled-back line
    // + 1 under recovery, or the current step (continue degraded) without.
    auto handle_death = [&](const elastic::DeathNotice& notice, int step) {
      if (std::find(notice.failed.begin(), notice.failed.end(), 0) !=
          notice.failed.end()) {
        throw std::runtime_error(
            "parallel_rollout: rank 0 died; it hosts the recorded frames and "
            "cannot be adopted");
      }
      // The rounds in flight were posted under the current assignment, and
      // the dead ranks posted theirs before dying at the step boundary.
      while (rank == 0 && !pending.empty()) collect();
      for (const int q : notice.failed) live[static_cast<std::size_t>(q)] = 0;
      if (mine.detection_step < 0) {
        mine.detection_step = step;
        mine.detection_seconds = notice.waited_seconds;
      }
      detection_hist.observe(notice.waited_seconds);
      std::string who;
      int blip = 0;  // borders degraded now; healthy again once adopted
      for (const int q : notice.failed) {
        if (!who.empty()) who += ',';
        who += std::to_string(q);
        if (exchange) blip += exchange->lose_peer(q);
      }
      if (!el.recover) {
        util::log_warn() << "rank " << rank << ": rank(s) " << who
                         << " dead at step " << step
                         << "; recovery disabled, " << blip
                         << " border(s) degraded to zero padding";
        return step;
      }
      util::WallTimer rebalance_timer;
      int adopted = 0;
      for (const int t : assign.rebalance(notice.failed)) {
        if (assign.owner(t) == rank) {
          activate(t);
          ++adopted;
        }
      }
      place();
      // Roll every hosted task (adopted and original alike) back to the
      // newest common snapshot line; without snapshots, back to the initial
      // frame. The dead rank finished step-1 entirely — its snapshots for
      // every line <= step-1 are durably on disk.
      const int line =
          snapshots ? elastic::rollback_line(step - 1, el.state_every) : -1;
      for (const int t : owned) {
        TaskState& ts = task[static_cast<std::size_t>(t)];
        std::string why;
        if (line < 0) {
          ts.interior = domain::extract_interior(initial, ts.block);
        } else if (!elastic::load_task_state(el.state_dir, t, line,
                                             &ts.interior, &why)) {
          throw std::runtime_error("parallel_rollout: rollback of task " +
                                   std::to_string(t) + " to step " +
                                   std::to_string(line) + " failed: " + why);
        }
        ts.health.reset();
      }
      const double rebalance_s = rebalance_timer.seconds();
      mine.recoveries += 1;
      mine.adopted += adopted;
      mine.blip += blip;
      mine.rebalance_seconds += rebalance_s;
      mine.epoch = assign.epoch();
      adoptions_counter.add(static_cast<std::uint64_t>(adopted));
      epoch_gauge.set(static_cast<double>(assign.epoch()));
      rebalance_hist.observe(rebalance_s);
      util::log_warn() << "rank " << rank << ": rank(s) " << who
                       << " dead at step " << step << "; epoch "
                       << assign.epoch() << ", adopted " << adopted
                       << " task(s), resuming from step " << (line + 1);
      return line + 1;
    };

    std::optional<elastic::Heartbeat> heartbeat;
    if (el.enabled) heartbeat.emplace(comm, el.lease, el.missed_leases);
    util::AccumulatingTimer comm_timer;
    util::AccumulatingTimer compute_timer;
    comm.reset_counters();
    bool resend = true;
    int step = 0;
    while (step < steps) {
      if (heartbeat) {
        // Step-boundary kill point: a killed rank dies *before* sending
        // anything for this step, so no partial traffic is ever in flight
        // at detection time.
        mpi::fault::check_kill_step(rank, step);
        try {
          heartbeat->barrier(assign.epoch(), step, live, resend);
        } catch (const elastic::DeathNotice& notice) {
          const int resume = handle_death(notice, step);
          // A recovery starts a new epoch, which needs a fresh heartbeat;
          // without one the barrier re-runs without the dead peers, and our
          // heartbeat for this step is already out.
          resend = el.recover;
          step = resume;
          continue;
        }
        resend = true;
      }
      telemetry::Span step_span("rollout.step", "rollout");
      util::WallTimer step_timer;

      if (exchange) {
        // Sec. III: "extra data points must be received from the neighboring
        // processes" — post every task's border strips, then receive the
        // neighbours' into the padded tiles.
        const std::uint64_t sent_before = comm.bytes_sent();
        const std::uint64_t recv_before = comm.bytes_received();
        exchange->begin(&comm_timer);
        exchange->finish(&comm_timer);
        mine.halo_bytes += comm.bytes_sent() - sent_before;
        mine.halo_bytes_received += comm.bytes_received() - recv_before;
      }
      compute_timer.start();
      {
        telemetry::Span forward_span("rollout.forward", "rollout");
        mpi::PhaseScope forward_phase(comm, "rollout.forward",
                                      mpi::CommPolicy::kForbidden);
        for (const int t : owned) {
          TaskState& ts = task[static_cast<std::size_t>(t)];
          // The halo-padded tile, or the bare interior when the border mode
          // exchanges nothing (zero-pad, deconv).
          const Tensor& input = exchange ? ts.padded : ts.interior;
          const nn::ForwardPlan::Output out =
              ts.plan->run(input.data(), input.dim(1), input.dim(2));
          domain::copy_window(ts.next, 0, 0, out.data, out.channels,
                              ts.block.height(), ts.block.width());
          std::swap(ts.interior, ts.next);
        }
      }
      compute_timer.stop();

      // Health monitor: scan this step's outputs for NaN/Inf. One pass over
      // each hosted tile, no allocation; its cost sits inside the
      // rollout_64_int8 benchmark workload's step time, which runs with the
      // monitor on.
      if (options.monitor_health) {
        for (const int t : owned) {
          const Tensor& out = task[static_cast<std::size_t>(t)].interior;
          const std::uint64_t bad =
              ops::count_nonfinite(out.data(), out.size());
          if (bad > 0) {
            mine.nonfinite += bad;
            nonfinite_counter.add(bad);
            if (mine.first_bad_step < 0) mine.first_bad_step = step;
          }
        }
      }
      if (snapshots && (step + 1) % el.state_every == 0) {
        for (const int t : owned) {
          elastic::save_task_state(el.state_dir, t, step,
                                   task[static_cast<std::size_t>(t)].interior);
        }
      }
      // Gather the predicted frame for validation/recording (not part of the
      // scheme's communication cost; a production run keeps fields
      // distributed — record_every <= 0 skips this entirely).
      if (recorded(step)) {
        telemetry::Span gather_span("rollout.gather", "rollout");
        post(step);
      }
      if (rank == 0) {
        const double seconds = step_timer.seconds();
        result.step_seconds[static_cast<std::size_t>(step)] = seconds;
        step_latency.observe(seconds);
      }
      ++step;
    }
    while (rank == 0 && !pending.empty()) collect();
    // The last collected round is the final step (always recorded).
    if (rank == 0 && full.ndim() == 3) result.frames.push_back(std::move(full));

    mine.comm_seconds = comm_timer.seconds();
    mine.compute_seconds = compute_timer.seconds();
    mine.bytes_sent = comm.bytes_sent();
    mine.bytes_received = comm.bytes_received();
    for (const int t : owned) {
      final_health[static_cast<std::size_t>(t)] =
          task[static_cast<std::size_t>(t)].health;
    }
  };

  mpi::Environment env(nranks);
  if (el.enabled) {
    result.health.failed_ranks =
        static_cast<int>(env.run_collect(body).failed_ranks().size());
  } else {
    env.run(body);
  }

  for (int r = 0; r < nranks; ++r) {
    const RankTally& rt = tally[static_cast<std::size_t>(r)];
    HealthReport& h = result.health;
    h.nonfinite_values += rt.nonfinite;
    if (rt.first_bad_step >= 0 &&
        (h.first_nonfinite_step < 0 ||
         rt.first_bad_step < h.first_nonfinite_step)) {
      h.first_nonfinite_step = rt.first_bad_step;
      h.first_nonfinite_rank = r;
    }
    result.comm_seconds = std::max(result.comm_seconds, rt.comm_seconds);
    result.compute_seconds =
        std::max(result.compute_seconds, rt.compute_seconds);
    result.halo_bytes += rt.halo_bytes;
    result.halo_bytes_received += rt.halo_bytes_received;
    result.bytes_sent += rt.bytes_sent;
    result.bytes_received += rt.bytes_received;
    h.recoveries = std::max(h.recoveries, rt.recoveries);
    h.adopted_tasks += rt.adopted;
    h.detection_step = std::max(h.detection_step, rt.detection_step);
    h.detection_seconds = std::max(h.detection_seconds, rt.detection_seconds);
    h.rebalance_seconds = std::max(h.rebalance_seconds, rt.rebalance_seconds);
    h.assignment_epoch = std::max(h.assignment_epoch, rt.epoch);
    h.degraded_during_recovery += rt.blip;
  }
  for (int t = 0; t < tasks; ++t) {
    const domain::BorderHealth& bh = final_health[static_cast<std::size_t>(t)];
    result.health.max_interface_residual =
        std::max(result.health.max_interface_residual, bh.max_residual());
    if (bh.any()) {
      result.degraded_borders += bh.count();
      result.degraded_detail.push_back((el.enabled ? "task " : "rank ") +
                                       std::to_string(t) + ": " +
                                       bh.describe());
    }
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
    auto model = rebuild_model(config, trained.rank_outcomes[r].parameters);
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
