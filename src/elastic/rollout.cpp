#include "elastic/rollout.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "core/model.hpp"
#include "domain/halo.hpp"
#include "domain/partition.hpp"
#include "elastic/assignment.hpp"
#include "elastic/state_checkpoint.hpp"
#include "minimpi/cart.hpp"
#include "minimpi/environment.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/tags.hpp"
#include "nn/forward_plan.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "util/log.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace parpde::elastic {

namespace {

using mpi::Direction;

// Task id of the grid neighbour in direction `d`, or -1 at the physical
// boundary. Tasks tile the (px, py) grid exactly like ranks do in CartComm:
// task t sits at (cx, cy) = (t % px, t / px).
int neighbor_task(int cx, int cy, Direction d, int px, int py) {
  int nx = cx;
  int ny = cy;
  switch (d) {
    case Direction::kWest: --nx; break;
    case Direction::kEast: ++nx; break;
    case Direction::kSouth: --ny; break;
    case Direction::kNorth: ++ny; break;
  }
  if (nx < 0 || nx >= px || ny < 0 || ny >= py) return -1;
  return ny * px + nx;
}

// Strip travelling in direction `travel` toward task `task` — the per-task
// analogue of the kHalo travel-tag scheme, so one rank can host several
// tasks' channels without collisions.
int strip_tag(int task, Direction travel) {
  return mpi::tags::elastic_halo_tag(task, static_cast<int>(travel));
}

// One subdomain task hosted on this rank: its model + pre-sized plan, its
// field, and the persistent exchange staging. `active` flips on at
// activation (initial ownership or adoption) — inactive slots only carry
// geometry.
struct TaskState {
  int id = -1;
  int cx = 0;
  int cy = 0;
  domain::BlockRange block{};
  bool active = false;
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<nn::ForwardPlan> plan;
  Tensor interior;  // [c, bh, bw], the task's current field
  Tensor next;      // assembled step output
  Tensor ext_x;     // [c, bh, bw + 2 halo] phase-1 staging
  Tensor padded;    // [c, bh + 2 halo, bw + 2 halo]
  domain::BorderHealth health;
  std::vector<float> send_strip;
  std::vector<float> recv_strip;
};

// Thrown out of the heartbeat barrier when a peer's lease budget is
// exhausted; carries every peer that expired at that moment so simultaneous
// deaths rebalance as one batch on every survivor.
struct DeathNotice {
  std::vector<int> failed;
  double waited_seconds = 0.0;
};

}  // namespace

core::RolloutResult elastic_rollout(const core::TrainConfig& config,
                                    const core::ParallelTrainReport& trained,
                                    const Tensor& initial, int steps,
                                    const core::RolloutOptions& options) {
  using core::BorderMode;
  if (config.border == BorderMode::kValidInner) {
    throw std::invalid_argument(
        "elastic_rollout: valid-inner mode cannot roll out (output loses the "
        "subdomain rim)");
  }
  if (initial.ndim() != 3) {
    throw std::invalid_argument("elastic_rollout: initial frame must be [C,H,W]");
  }
  if (steps <= 0) throw std::invalid_argument("elastic_rollout: steps must be > 0");

  const core::ElasticOptions& el = options.elastic;
  const int tasks = trained.ranks;
  if (el.tasks_per_rank < 1 || tasks % el.tasks_per_rank != 0) {
    throw std::invalid_argument(
        "elastic_rollout: tasks_per_rank must divide the trained report's rank "
        "count (" +
        std::to_string(tasks) + ")");
  }
  if (tasks > mpi::tags::kMaxElasticTasks) {
    throw std::invalid_argument("elastic_rollout: more tasks than the kElastic "
                                "tag range can address");
  }
  const int nranks = tasks / el.tasks_per_rank;
  const int px = trained.dims.px;
  const int py = trained.dims.py;
  if (px * py != tasks) {
    throw std::invalid_argument("elastic_rollout: trained dims do not tile the "
                                "task count");
  }
  const std::chrono::milliseconds lease =
      std::max(el.lease, std::chrono::milliseconds(1));
  const std::int64_t lease_budget_ms =
      lease.count() * static_cast<std::int64_t>(std::max(el.missed_leases, 1));
  const bool snapshots = el.state_every > 0 && !el.state_dir.empty();

  const domain::Partition partition(initial.dim(1), initial.dim(2), px, py);
  const std::int64_t halo = config.border == BorderMode::kHaloPad
                                ? config.network.receptive_halo()
                                : 0;
  const std::int64_t chans = initial.dim(0);
  const backend::KernelBackend* bk =
      options.backend != nullptr ? options.backend : &backend::blocked_f32();

  auto recorded = [&](int step) {
    if (options.record_every <= 0) return false;
    return (step + 1) % options.record_every == 0 || step + 1 == steps;
  };
  std::vector<int> recorded_steps;
  for (int s = 0; s < steps; ++s) {
    if (recorded(s)) recorded_steps.push_back(s);
  }

  core::RolloutResult result;
  result.backend = bk->name();
  result.recorded_steps = recorded_steps;
  result.frames.resize(recorded_steps.size());
  result.step_seconds.resize(static_cast<std::size_t>(steps), 0.0);

  const auto np = static_cast<std::size_t>(nranks);
  std::vector<double> comm_seconds(np, 0.0);
  std::vector<double> compute_seconds(np, 0.0);
  std::vector<std::uint64_t> steady_allocs(np, 0);
  std::vector<std::uint64_t> halo_bytes(np, 0);
  std::vector<std::uint64_t> halo_bytes_recv(np, 0);
  std::vector<std::uint64_t> total_sent(np, 0);
  std::vector<std::uint64_t> total_recv(np, 0);
  std::vector<std::uint64_t> nonfinite(np, 0);
  std::vector<int> first_bad_step(np, -1);
  std::vector<int> recoveries_of(np, 0);
  std::vector<int> adopted_of(np, 0);
  std::vector<int> detect_step_of(np, -1);
  std::vector<double> detect_seconds_of(np, 0.0);
  std::vector<double> rebalance_seconds_of(np, 0.0);
  std::vector<int> epoch_of(np, 0);
  std::vector<int> blip_of(np, 0);
  // Final per-task border state, written by each task's last owner.
  std::vector<int> task_degraded(static_cast<std::size_t>(tasks), 0);
  std::vector<std::string> task_border(static_cast<std::size_t>(tasks));

  static telemetry::Counter& saturated =
      telemetry::counter("backend.int8.saturated");
  static telemetry::Counter& nonfinite_counter =
      telemetry::counter("health.nonfinite_values");
  const std::uint64_t saturated_before = saturated.value();

  mpi::Environment env(nranks);
  const mpi::RunOutcome outcome = env.run_collect([&](mpi::Communicator& comm) {
    const int rank = comm.rank();
    const auto ri = static_cast<std::size_t>(rank);
    mpi::PhaseScope phase(comm, "elastic.rollout");

    static telemetry::Counter& adoptions_counter =
        telemetry::counter("recover.adoptions");
    static telemetry::Gauge& epoch_gauge =
        telemetry::gauge("recover.assignment_epoch");
    static telemetry::Histogram& rebalance_hist =
        telemetry::histogram("recover.rebalance_seconds");
    static telemetry::Histogram& detection_hist =
        telemetry::histogram("recover.detection_seconds");
    static telemetry::Histogram& step_latency =
        telemetry::histogram("rollout.step_seconds");
    static telemetry::Counter& steady_counter =
        telemetry::counter("inference.steady_state_allocs");

    Assignment assign(tasks, nranks);
    std::vector<char> live(static_cast<std::size_t>(nranks), 1);
    std::vector<TaskState> task(static_cast<std::size_t>(tasks));
    for (int t = 0; t < tasks; ++t) {
      TaskState& ts = task[static_cast<std::size_t>(t)];
      ts.id = t;
      ts.cx = t % px;
      ts.cy = t / px;
      ts.block = partition.block(ts.cx, ts.cy);
      if (halo > ts.block.height() || halo > ts.block.width()) {
        throw std::invalid_argument(
            "elastic_rollout: halo exceeds the task block size (too many "
            "tasks for this grid)");
      }
    }

    util::AccumulatingTimer comm_timer;
    util::AccumulatingTimer compute_timer;
    comm.reset_counters();
    std::uint64_t exchange_bytes = 0;
    std::uint64_t exchange_bytes_recv = 0;
    std::uint64_t buffer_growths = 0;

    // Builds (or rebuilds, on adoption) one task's model, plan and initial
    // field. Int8 calibration always runs on the *initial* interior so an
    // adopted task installs the exact activation scales its original owner
    // calibrated at step 0 — a prerequisite for bit-identical resumption.
    auto activate = [&](TaskState& ts) {
      util::Rng rng(config.seed);
      ts.model = core::build_model(config.network, config.border, rng);
      core::import_parameters(
          *ts.model,
          trained.rank_outcomes[static_cast<std::size_t>(ts.id)].parameters);
      ts.interior = domain::extract_interior(initial, ts.block);
      const std::int64_t bh = ts.block.height();
      const std::int64_t bw = ts.block.width();
      ts.plan = std::make_unique<nn::ForwardPlan>(*ts.model, chans,
                                                  bh + 2 * halo, bw + 2 * halo,
                                                  bk);
      if (ts.plan->needs_calibration()) {
        if (halo > 0) {
          Tensor calib({chans, bh + 2 * halo, bw + 2 * halo});
          calib.fill(0.0f);
          domain::copy_window(calib, halo, halo, ts.interior.data(), chans, bh,
                              bw);
          ts.plan->calibrate(calib.data(), calib.dim(1), calib.dim(2));
        } else {
          ts.plan->calibrate(ts.interior.data(), bh, bw);
        }
      }
      if (ts.next.ndim() != 3 || ts.next.dim(1) != bh || ts.next.dim(2) != bw) {
        ts.next = Tensor({chans, bh, bw});
      }
      ts.active = true;
    };

    std::vector<int> owned = assign.tasks_of(rank);
    for (const int t : owned) activate(task[static_cast<std::size_t>(t)]);

    // --- heartbeat barrier -------------------------------------------------
    // Per-peer high-water mark of the (epoch, step) key the last heartbeat
    // carried; the lexicographic key lets post-recovery barriers consume any
    // stale pre-recovery heartbeat without miscounting it.
    auto hb_key = [](std::uint32_t epoch, std::uint32_t step) {
      return (static_cast<std::int64_t>(epoch) << 32) |
             static_cast<std::int64_t>(step);
    };
    std::vector<std::int64_t> hb_seen(static_cast<std::size_t>(nranks), -1);
    std::vector<std::uint32_t> hb_buf;
    std::vector<float> gather_buf;

    // Sends this step's heartbeat to every live peer (unless `resend` is
    // false — a barrier re-entered after a no-recover death already sent it)
    // and waits until every live peer's heartbeat reaches (epoch, step).
    // A peer that stays silent for the whole lease budget while we wait is
    // declared dead via DeathNotice. Never uses a collective: those would
    // hang on the dead rank. Threading (src/minimpi/README.md): this loop
    // and strip_recv below both run on the rank's own thread, and the
    // heartbeat and strip tag ranges are disjoint, so each channel keeps a
    // single consumer.
    auto heartbeat_barrier = [&](int step, bool resend) {
      const auto epoch = static_cast<std::uint32_t>(assign.epoch());
      if (resend) {
        const std::array<std::uint32_t, 2> hb = {
            epoch, static_cast<std::uint32_t>(step)};
        for (int p = 0; p < nranks; ++p) {
          if (p == rank || !live[static_cast<std::size_t>(p)]) continue;
          comm.send<std::uint32_t>(p, mpi::tags::elastic_heartbeat_tag(), hb);
        }
      }
      const std::int64_t target =
          hb_key(epoch, static_cast<std::uint32_t>(step));
      std::vector<std::int64_t> waited_ms(static_cast<std::size_t>(nranks), 0);
      util::WallTimer wait_timer;
      for (;;) {
        bool all = true;
        for (int p = 0; p < nranks; ++p) {
          const auto pi = static_cast<std::size_t>(p);
          if (p == rank || !live[pi] || hb_seen[pi] >= target) continue;
          const mpi::RecvStatus status = comm.recv_for<std::uint32_t>(
              p, mpi::tags::elastic_heartbeat_tag(), lease, &hb_buf);
          if (status == mpi::RecvStatus::kOk && hb_buf.size() == 2) {
            hb_seen[pi] = std::max(hb_seen[pi], hb_key(hb_buf[0], hb_buf[1]));
          } else {
            waited_ms[pi] += lease.count();
            if (waited_ms[pi] >= lease_budget_ms) {
              // Batch every peer whose budget expired in this same round so
              // simultaneous deaths produce one deterministic rebalance.
              DeathNotice notice;
              notice.waited_seconds = wait_timer.seconds();
              for (int q = 0; q < nranks; ++q) {
                const auto qi = static_cast<std::size_t>(q);
                if (q != rank && live[qi] && hb_seen[qi] < target &&
                    waited_ms[qi] >= lease_budget_ms) {
                  notice.failed.push_back(q);
                }
              }
              throw notice;
            }
          }
          if (hb_seen[pi] < target) all = false;
        }
        if (all) return;
      }
    };

    // Bounded strip receive. The sender already heartbeat through this
    // step's barrier, so a missing strip is a protocol bug or an injected
    // fault on the elastic tag range (unsupported) — give it several lease
    // budgets, then fail this rank rather than hang or desynchronize.
    auto strip_recv = [&](int src, int tag, std::vector<float>& out,
                          int step) {
      std::int64_t waited = 0;
      const std::int64_t budget = 4 * lease_budget_ms + 1000;
      for (;;) {
        const mpi::RecvStatus status = comm.recv_for<float>(src, tag, lease, &out);
        if (status == mpi::RecvStatus::kOk) return;
        if (status == mpi::RecvStatus::kCorrupt) {
          throw mpi::fault::RankFailure(
              "elastic rollout: CRC-corrupt strip from rank " + std::to_string(src), -1,
              step);
        }
        waited += lease.count();
        if (waited >= budget) {
          throw mpi::fault::RankFailure(
              "elastic rollout: no strip from rank " + std::to_string(src) +
                  " within the patience budget",
              -1, step);
        }
      }
    };

    // --- two-phase task halo exchange --------------------------------------
    // Same strip geometry and W/E-then-S/N phasing as domain/exchange.cpp,
    // but addressed task-to-task through the Assignment map; strips between
    // two tasks on the same rank are copied directly (no mailbox round
    // trip). A neighbour task whose owner is dead (and unadopted) is skipped
    // on both sides — its halo band stays zero, the zero-padding treatment.
    auto exchange_tasks = [&](int step) {
      comm_timer.start();
      const std::uint64_t sent_before = comm.bytes_sent();
      const std::uint64_t recv_before = comm.bytes_received();
      // Phase-1 sends: W/E interior strips of every owned task.
      for (const int t : owned) {
        TaskState& ts = task[static_cast<std::size_t>(t)];
        const std::int64_t bh = ts.block.height();
        const std::int64_t bw = ts.block.width();
        for (const Direction d : {Direction::kWest, Direction::kEast}) {
          const int nt = neighbor_task(ts.cx, ts.cy, d, px, py);
          if (nt < 0) continue;
          const int dest = assign.owner(nt);
          if (!live[static_cast<std::size_t>(dest)] || dest == rank) continue;
          if (d == Direction::kWest) {
            domain::pack_region_into(ts.interior, 0, bh, 0, halo,
                                     ts.send_strip);
          } else {
            domain::pack_region_into(ts.interior, 0, bh, bw - halo, halo,
                                     ts.send_strip);
          }
          comm.send<float>(dest, strip_tag(nt, d), ts.send_strip);
        }
      }
      // Phase-1 assembly + receives into the x-extended staging.
      for (const int t : owned) {
        TaskState& ts = task[static_cast<std::size_t>(t)];
        const std::int64_t bh = ts.block.height();
        const std::int64_t bw = ts.block.width();
        if (ts.ext_x.ndim() != 3 || ts.ext_x.dim(0) != chans ||
            ts.ext_x.dim(1) != bh || ts.ext_x.dim(2) != bw + 2 * halo) {
          ts.ext_x = Tensor({chans, bh, bw + 2 * halo});
          ++buffer_growths;
        }
        domain::copy_window(ts.ext_x, 0, halo, ts.interior.data(), chans, bh,
                            bw);
        domain::zero_region(ts.ext_x, 0, bh, 0, halo);
        domain::zero_region(ts.ext_x, 0, bh, halo + bw, halo);
        for (const Direction side : {Direction::kEast, Direction::kWest}) {
          const int nt = neighbor_task(ts.cx, ts.cy, side, px, py);
          if (nt < 0) continue;
          const int src = assign.owner(nt);
          if (!live[static_cast<std::size_t>(src)]) continue;
          const TaskState& nb = task[static_cast<std::size_t>(nt)];
          const std::int64_t nb_bw = nb.block.width();
          if (src == rank) {
            // Our east halo is the east neighbour's west strip (and vice
            // versa) — copy it straight out of the co-resident task.
            if (side == Direction::kEast) {
              domain::pack_region_into(nb.interior, 0, bh, 0, halo,
                                       ts.recv_strip);
            } else {
              domain::pack_region_into(nb.interior, 0, bh, nb_bw - halo, halo,
                                       ts.recv_strip);
            }
          } else {
            strip_recv(src, strip_tag(t, opposite(side)), ts.recv_strip, step);
          }
          if (side == Direction::kEast) {
            domain::unpack_region(ts.ext_x, 0, bh, halo + bw, halo,
                                  ts.recv_strip);
          } else {
            domain::unpack_region(ts.ext_x, 0, bh, 0, halo, ts.recv_strip);
          }
        }
      }
      // Phase-2 sends: S/N strips of the x-extended staging, so diagonal
      // corners arrive via the row neighbours.
      for (const int t : owned) {
        TaskState& ts = task[static_cast<std::size_t>(t)];
        const std::int64_t bh = ts.block.height();
        const std::int64_t bw = ts.block.width();
        if (ts.padded.ndim() != 3 || ts.padded.dim(0) != chans ||
            ts.padded.dim(1) != bh + 2 * halo ||
            ts.padded.dim(2) != bw + 2 * halo) {
          ts.padded = Tensor({chans, bh + 2 * halo, bw + 2 * halo});
          ++buffer_growths;
        }
        domain::copy_window(ts.padded, halo, 0, ts.ext_x.data(), chans, bh,
                            bw + 2 * halo);
        domain::zero_region(ts.padded, 0, halo, 0, bw + 2 * halo);
        domain::zero_region(ts.padded, halo + bh, halo, 0, bw + 2 * halo);
        for (const Direction d : {Direction::kSouth, Direction::kNorth}) {
          const int nt = neighbor_task(ts.cx, ts.cy, d, px, py);
          if (nt < 0) continue;
          const int dest = assign.owner(nt);
          if (!live[static_cast<std::size_t>(dest)] || dest == rank) continue;
          if (d == Direction::kSouth) {
            domain::pack_region_into(ts.ext_x, 0, halo, 0, bw + 2 * halo,
                                     ts.send_strip);
          } else {
            domain::pack_region_into(ts.ext_x, bh - halo, halo, 0,
                                     bw + 2 * halo, ts.send_strip);
          }
          comm.send<float>(dest, strip_tag(nt, d), ts.send_strip);
        }
      }
      // Phase-2 receives into the fully padded input.
      for (const int t : owned) {
        TaskState& ts = task[static_cast<std::size_t>(t)];
        const std::int64_t bh = ts.block.height();
        const std::int64_t bw = ts.block.width();
        for (const Direction side : {Direction::kNorth, Direction::kSouth}) {
          const int nt = neighbor_task(ts.cx, ts.cy, side, px, py);
          if (nt < 0) continue;
          const int src = assign.owner(nt);
          if (!live[static_cast<std::size_t>(src)]) continue;
          const TaskState& nb = task[static_cast<std::size_t>(nt)];
          const std::int64_t nb_bh = nb.block.height();
          if (src == rank) {
            if (side == Direction::kNorth) {
              domain::pack_region_into(nb.ext_x, 0, halo, 0, bw + 2 * halo,
                                       ts.recv_strip);
            } else {
              domain::pack_region_into(nb.ext_x, nb_bh - halo, halo, 0,
                                       bw + 2 * halo, ts.recv_strip);
            }
          } else {
            strip_recv(src, strip_tag(t, opposite(side)), ts.recv_strip, step);
          }
          if (side == Direction::kNorth) {
            domain::unpack_region(ts.padded, halo + bh, halo, 0,
                                  bw + 2 * halo, ts.recv_strip);
          } else {
            domain::unpack_region(ts.padded, 0, halo, 0, bw + 2 * halo,
                                  ts.recv_strip);
          }
        }
      }
      exchange_bytes += comm.bytes_sent() - sent_before;
      exchange_bytes_recv += comm.bytes_received() - recv_before;
      comm_timer.stop();
    };

    // --- failure handling --------------------------------------------------
    // Every survivor runs this with the identical failed set at the identical
    // step (the all-to-all barrier guarantees it), so the rebalanced map and
    // the rollback line agree everywhere with no coordination. Returns the
    // step to resume from: the rolled-back line + 1 under recovery, or the
    // current step (continue degraded) under --no-recover.
    auto handle_death = [&](const DeathNotice& notice, int step) -> int {
      if (std::find(notice.failed.begin(), notice.failed.end(), 0) !=
          notice.failed.end()) {
        throw std::runtime_error(
            "elastic rollout: rank 0 died; it hosts the recorded frames and "
            "cannot be adopted");
      }
      for (const int q : notice.failed) live[static_cast<std::size_t>(q)] = 0;
      if (detect_step_of[ri] < 0) {
        detect_step_of[ri] = step;
        detect_seconds_of[ri] = notice.waited_seconds;
      }
      detection_hist.observe(notice.waited_seconds);
      std::string who;
      for (const int q : notice.failed) {
        if (!who.empty()) who += ',';
        who += std::to_string(q);
      }
      // The blip: every border facing a dead rank's task degrades now; under
      // recovery it is healthy again the moment the task is adopted.
      int blip = 0;
      for (const int t : owned) {
        TaskState& ts = task[static_cast<std::size_t>(t)];
        for (const Direction d : mpi::kAllDirections) {
          const int nt = neighbor_task(ts.cx, ts.cy, d, px, py);
          if (nt < 0) continue;
          if (!live[static_cast<std::size_t>(assign.owner(nt))] &&
              !ts.health.degraded(d)) {
            ts.health.mark_degraded(d);
            ++blip;
          }
        }
      }
      if (!el.recover) {
        util::log_warn() << "rank " << rank << ": rank(s) " << who
                         << " dead at step " << step
                         << "; recovery disabled, " << blip
                         << " border(s) degraded to zero padding";
        return step;
      }
      util::WallTimer rebalance_timer;
      const std::vector<int> orphans = assign.rebalance(notice.failed);
      int adopted = 0;
      for (const int t : orphans) {
        if (assign.owner(t) == rank) {
          activate(task[static_cast<std::size_t>(t)]);
          ++adopted;
        }
      }
      owned = assign.tasks_of(rank);
      // Roll every owned task (adopted and original alike) back to the
      // newest common snapshot line; without snapshots, back to the initial
      // frame. The dead rank finished step-1 entirely — its snapshots for
      // every line <= step-1 are durably on disk.
      const int line = snapshots ? rollback_line(step - 1, el.state_every) : -1;
      for (const int t : owned) {
        TaskState& ts = task[static_cast<std::size_t>(t)];
        if (line >= 0) {
          std::string why;
          if (!load_task_state(el.state_dir, t, line, &ts.interior, &why)) {
            throw std::runtime_error("elastic rollout: rollback of task " +
                                     std::to_string(t) + " to step " +
                                     std::to_string(line) + " failed: " + why);
          }
        } else {
          ts.interior = domain::extract_interior(initial, ts.block);
        }
        ts.health.reset();
      }
      const double rebalance_s = rebalance_timer.seconds();
      recoveries_of[ri] += 1;
      adopted_of[ri] += adopted;
      blip_of[ri] += blip;
      rebalance_seconds_of[ri] += rebalance_s;
      epoch_of[ri] = assign.epoch();
      adoptions_counter.add(static_cast<std::uint64_t>(adopted));
      epoch_gauge.set(static_cast<double>(assign.epoch()));
      rebalance_hist.observe(rebalance_s);
      util::log_warn() << "rank " << rank << ": rank(s) " << who
                       << " dead at step " << step << "; epoch "
                       << assign.epoch() << ", adopted " << adopted
                       << " task(s), resuming from step " << (line + 1);
      return line + 1;
    };

    // --- main loop ---------------------------------------------------------
    std::uint64_t warm_growths = 0;
    int warm_until = 0;  // re-baselined after recovery: adopted plans grow once
    auto total_growths = [&] {
      std::uint64_t g = buffer_growths;
      for (const int t : owned) {
        g += task[static_cast<std::size_t>(t)].plan->growth_events();
      }
      return g;
    };

    int step = 0;
    bool resend_hb = true;
    while (step < steps) {
      telemetry::Span step_span("elastic.step", "rollout");
      util::WallTimer step_timer;
      // Step-boundary kill point: a killed rank dies *before* sending
      // anything for this step, so no partial traffic is ever in flight at
      // detection time.
      mpi::fault::check_kill_step(rank, step);

      bool rolled_back = false;
      for (;;) {
        try {
          heartbeat_barrier(step, resend_hb);
          resend_hb = true;
          break;
        } catch (const DeathNotice& notice) {
          const int resume = handle_death(notice, step);
          if (el.recover) {
            step = resume;
            resend_hb = true;  // new epoch: fresh heartbeat required
            rolled_back = true;
            break;
          }
          // --no-recover: the barrier re-runs without the dead peers; our
          // heartbeat for this step is already out, don't duplicate it.
          resend_hb = false;
        }
      }
      if (rolled_back) {
        warm_until = step;
        continue;
      }

      if (halo > 0) exchange_tasks(step);

      compute_timer.start();
      {
        telemetry::Span forward_span("elastic.forward", "rollout");
        mpi::PhaseScope forward_phase(comm, "rollout.forward",
                                      mpi::CommPolicy::kForbidden);
        for (const int t : owned) {
          TaskState& ts = task[static_cast<std::size_t>(t)];
          const std::int64_t bh = ts.block.height();
          const std::int64_t bw = ts.block.width();
          const Tensor& input = halo > 0 ? ts.padded : ts.interior;
          const nn::ForwardPlan::Output out =
              ts.plan->run(input.data(), input.dim(1), input.dim(2));
          domain::copy_window(ts.next, 0, 0, out.data, out.channels, bh, bw);
          std::swap(ts.interior, ts.next);
        }
      }
      compute_timer.stop();

      if (options.monitor_health) {
        for (const int t : owned) {
          const TaskState& ts = task[static_cast<std::size_t>(t)];
          const std::uint64_t bad =
              ops::count_nonfinite(ts.interior.data(), ts.interior.size());
          if (bad > 0) {
            nonfinite[ri] += bad;
            nonfinite_counter.add(bad);
            if (first_bad_step[ri] < 0) first_bad_step[ri] = step;
          }
        }
      }

      if (snapshots && (step + 1) % el.state_every == 0) {
        for (const int t : owned) {
          save_task_state(el.state_dir, t, step,
                          task[static_cast<std::size_t>(t)].interior);
        }
      }

      if (recorded(step)) {
        telemetry::Span gather_span("elastic.gather", "rollout");
        comm_timer.start();
        const std::size_t frame_index = static_cast<std::size_t>(
            std::lower_bound(recorded_steps.begin(), recorded_steps.end(),
                             step) -
            recorded_steps.begin());
        if (rank != 0) {
          for (const int t : owned) {
            const TaskState& ts = task[static_cast<std::size_t>(t)];
            comm.send<float>(0, mpi::tags::elastic_gather_tag(t),
                             ts.interior.values());
          }
        } else {
          Tensor& full = result.frames[frame_index];
          if (full.ndim() != 3 || full.dim(0) != chans ||
              full.dim(1) != partition.grid_h() ||
              full.dim(2) != partition.grid_w()) {
            full = Tensor({chans, partition.grid_h(), partition.grid_w()});
          }
          bool any_dead = false;
          for (int p = 0; p < nranks; ++p) {
            any_dead = any_dead || !live[static_cast<std::size_t>(p)];
          }
          // Dead, unadopted tasks leave zero holes (--no-recover only).
          if (any_dead) full.fill(0.0f);
          for (int t = 0; t < tasks; ++t) {
            const TaskState& ts = task[static_cast<std::size_t>(t)];
            const int src = assign.owner(t);
            if (!live[static_cast<std::size_t>(src)]) continue;
            const domain::BlockRange& b = ts.block;
            if (src == 0) {
              domain::copy_window(full, b.h0, b.w0, ts.interior.data(), chans,
                                  b.height(), b.width());
            } else {
              strip_recv(src, mpi::tags::elastic_gather_tag(t), gather_buf,
                         step);
              if (gather_buf.size() !=
                  static_cast<std::size_t>(chans * b.height() * b.width())) {
                throw std::runtime_error(
                    "elastic rollout: gathered block size mismatch");
              }
              domain::copy_window(full, b.h0, b.w0, gather_buf.data(), chans,
                                  b.height(), b.width());
            }
          }
        }
        comm_timer.stop();
      }

      if (step == warm_until) warm_growths = total_growths();
      if (rank == 0) {
        const double seconds = step_timer.seconds();
        result.step_seconds[static_cast<std::size_t>(step)] = seconds;
        step_latency.observe(seconds);
      }
      ++step;
    }

    const std::uint64_t growths = total_growths();
    steady_allocs[ri] = growths - warm_growths;
    steady_counter.add(growths - warm_growths);
    comm_seconds[ri] = comm_timer.seconds();
    compute_seconds[ri] = compute_timer.seconds();
    halo_bytes[ri] = exchange_bytes;
    halo_bytes_recv[ri] = exchange_bytes_recv;
    total_sent[ri] = comm.bytes_sent();
    total_recv[ri] = comm.bytes_received();
    for (const int t : owned) {
      const TaskState& ts = task[static_cast<std::size_t>(t)];
      if (ts.health.any()) {
        task_degraded[static_cast<std::size_t>(t)] = ts.health.count();
        task_border[static_cast<std::size_t>(t)] = ts.health.describe();
      }
    }
  });

  for (int r = 0; r < nranks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    result.health.nonfinite_values += nonfinite[ri];
    if (first_bad_step[ri] >= 0 &&
        (result.health.first_nonfinite_step < 0 ||
         first_bad_step[ri] < result.health.first_nonfinite_step)) {
      result.health.first_nonfinite_step = first_bad_step[ri];
      result.health.first_nonfinite_rank = r;
    }
    result.comm_seconds = std::max(result.comm_seconds, comm_seconds[ri]);
    result.compute_seconds =
        std::max(result.compute_seconds, compute_seconds[ri]);
    result.steady_state_allocs += steady_allocs[ri];
    result.halo_bytes += halo_bytes[ri];
    result.halo_bytes_received += halo_bytes_recv[ri];
    result.bytes_sent += total_sent[ri];
    result.bytes_received += total_recv[ri];
    result.health.recoveries = std::max(result.health.recoveries,
                                        recoveries_of[ri]);
    result.health.adopted_tasks += adopted_of[ri];
    result.health.detection_step =
        std::max(result.health.detection_step, detect_step_of[ri]);
    result.health.detection_seconds =
        std::max(result.health.detection_seconds, detect_seconds_of[ri]);
    result.health.rebalance_seconds =
        std::max(result.health.rebalance_seconds, rebalance_seconds_of[ri]);
    result.health.assignment_epoch =
        std::max(result.health.assignment_epoch, epoch_of[ri]);
    result.health.degraded_during_recovery += blip_of[ri];
  }
  for (int t = 0; t < tasks; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (task_degraded[ti] > 0) {
      result.degraded_borders += task_degraded[ti];
      result.degraded_detail.push_back("task " + std::to_string(t) + ": " +
                                       task_border[ti]);
    }
  }
  result.health.failed_ranks = static_cast<int>(outcome.failed_ranks().size());
  result.health.quant_saturations = saturated.value() - saturated_before;
  result.health.degraded_borders = result.degraded_borders;
  return result;
}

}  // namespace parpde::elastic
