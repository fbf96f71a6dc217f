// parpde-mc: schedule-space model checker for the minimpi runtime
// (docs/static-analysis.md, "schedule-space model checking").
//
// Runs invariant oracles — a 2x2 overlapped rollout, a ParallelTrainer epoch,
// and a checkpoint/kill/resume cycle — under hundreds of seeded delivery/
// wakeup/chunk-order schedules (src/verify/), asserting that every explored
// interleaving produces bit-identical outputs, deadlocks nowhere (the
// validator watchdog turns hangs into errors) and leaks no mailbox messages.
// On divergence the failing schedule is shrunk to a minimal PARPDE_SCHEDULE
// replay spec, printed, and optionally written to --fail-spec-out.
//
//   parpde_mc --oracle=rollout|trainer|checkpoint|recovery|all [--distinct=N]
//             [--runs=N] [--seed=S] [--fail-spec-out=PATH]
//   parpde_mc --self-test          seed a known order bug; require catch+shrink
//   parpde_mc --oracle=X --replay=SPEC   re-run one schedule spec
//
// Exit codes: 0 all schedules agree, 1 divergence (or self-test miss),
// 2 usage error.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/inference.hpp"
#include "core/model.hpp"
#include "core/parallel_trainer.hpp"
#include "core/trainer.hpp"
#include "domain/partition.hpp"
#include "euler/simulate.hpp"
#include "minimpi/cart.hpp"
#include "minimpi/collectives.hpp"
#include "minimpi/environment.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/validate.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"
#include "verify/explore.hpp"

namespace parpde {
namespace {

using core::ExecutionMode;
using core::ParallelTrainReport;
using core::TrainConfig;

// --- output hashing ----------------------------------------------------------

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvSeed = 0xCBF29CE484222325ULL;

std::uint64_t hash_tensor(const Tensor& t, std::uint64_t h) {
  return fnv1a(t.data(), static_cast<std::size_t>(t.size()) * sizeof(float), h);
}

std::uint64_t hash_report(const ParallelTrainReport& report) {
  std::uint64_t h = kFnvSeed;
  for (const auto& outcome : report.rank_outcomes) {
    for (const Tensor& p : outcome.parameters) h = hash_tensor(p, h);
  }
  for (const int r : report.retrained_ranks) h = fnv1a(&r, sizeof(r), h);
  return h;
}

// A rollout sink that keeps each step's last delivered frame: an elastic
// rollback delivers its recomputed steps again, and the later one counts.
// Hashing the map in step order hashes what the rollout produced.
std::function<void(int, const Tensor&)> keep_last_delivery(
    std::map<int, Tensor>& frames) {
  return [&frames](int step, const Tensor& frame) { frames[step] = frame; };
}

// --- oracle fixtures ---------------------------------------------------------

TrainConfig tiny_config() {
  TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  cfg.learning_rate = 2e-3;
  cfg.loss = "mse";
  cfg.border = core::BorderMode::kHaloPad;
  return cfg;
}

data::FrameDataset tiny_dataset() {
  euler::EulerConfig ec;
  ec.n = 16;
  euler::SimulateOptions opts;
  opts.num_frames = 13;
  auto sim = euler::simulate(ec, opts);
  return data::FrameDataset(std::move(sim.frames));
}

// 2x2 overlapped rollout over shared untrained weights (the rollout's
// bit-identity does not depend on where the weights came from, and skipping
// training keeps each explored schedule cheap).
verify::Oracle make_rollout_oracle() {
  const TrainConfig cfg = tiny_config();
  constexpr std::int64_t kGrid = 16;
  core::NetworkTrainer reference(cfg, 0);
  const auto params = core::export_parameters(reference.model());
  ParallelTrainReport report;
  report.ranks = 4;
  report.dims = mpi::dims_create(4);
  const domain::Partition part(kGrid, kGrid, report.dims.px, report.dims.py);
  report.rank_outcomes.resize(4);
  for (int r = 0; r < 4; ++r) {
    auto& outcome = report.rank_outcomes[static_cast<std::size_t>(r)];
    outcome.rank = r;
    outcome.block = part.block_of_rank(r);
    outcome.parameters = params;
  }
  Tensor initial({4, kGrid, kGrid});
  util::Rng rng(42);
  rng.fill_uniform(initial.values(), 0.5f, 1.5f);

  return [cfg, report = std::move(report), initial = std::move(initial)] {
    std::map<int, Tensor> frames;
    core::RolloutOptions options;
    options.on_frame = keep_last_delivery(frames);
    const auto result =
        core::parallel_rollout(cfg, report, initial, /*steps=*/3, options);
    if (result.degraded_borders != 0) {
      throw std::runtime_error("rollout degraded a border with no faults");
    }
    std::uint64_t h = kFnvSeed;
    for (const auto& [step, frame] : frames) h = hash_tensor(frame, h);
    for (const auto& [step, frame] : frames) h = fnv1a(&step, sizeof(step), h);
    return h;
  };
}

// One communication-free training epoch across 4 concurrent rank threads.
verify::Oracle make_trainer_oracle() {
  auto ds = std::make_shared<data::FrameDataset>(tiny_dataset());
  const TrainConfig cfg = tiny_config();
  return [ds, cfg] {
    const core::ParallelTrainer trainer(cfg, 4);
    return hash_report(trainer.train(*ds, ExecutionMode::kConcurrent));
  };
}

// Checkpoint-every-epoch training where rank 1 is killed at the epoch-1
// boundary and retrained from its crash-consistent checkpoint, followed by a
// short overlapped rollout of the recovered models. The recovery protocol and
// inference over the recovered weights must both be schedule-independent.
verify::Oracle make_checkpoint_oracle() {
  euler::EulerConfig ec;
  ec.n = 16;
  euler::SimulateOptions sopts;
  sopts.num_frames = 13;
  auto sim = euler::simulate(ec, sopts);
  auto initial = std::make_shared<Tensor>(sim.frames.front());
  auto ds = std::make_shared<data::FrameDataset>(
      data::FrameDataset(std::move(sim.frames)));
  TrainConfig cfg = tiny_config();
  cfg.epochs = 2;
  const auto base =
      std::filesystem::temp_directory_path() / "parpde_mc_ckpt";
  auto counter = std::make_shared<int>(0);
  return [ds, cfg, base, counter, initial] {
    const auto dir = base / std::to_string((*counter)++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    core::FaultToleranceOptions ft;
    ft.checkpoint_dir = dir.string();
    ft.checkpoint_every = 1;
    mpi::fault::KillSpec kill;
    kill.rank = 1;
    kill.at_epoch = 1;
    mpi::fault::install(mpi::fault::FaultPlan(7).set_kill(kill));
    ParallelTrainReport report;
    try {
      const core::ParallelTrainer trainer(cfg, 4);
      report = trainer.train(*ds, ExecutionMode::kConcurrent, nullptr, &ft);
    } catch (...) {
      mpi::fault::uninstall();
      std::filesystem::remove_all(dir);
      throw;
    }
    mpi::fault::uninstall();
    std::filesystem::remove_all(dir);
    if (report.retrained_ranks != std::vector<int>{1}) {
      throw std::runtime_error("checkpoint oracle: rank 1 was not retrained");
    }
    std::uint64_t h = hash_report(report);
    std::map<int, Tensor> frames;
    core::RolloutOptions options;
    options.on_frame = keep_last_delivery(frames);
    const auto rollout =
        core::parallel_rollout(cfg, report, *initial, /*steps=*/2, options);
    if (rollout.degraded_borders != 0) {
      throw std::runtime_error("checkpoint oracle: post-resume rollout "
                               "degraded a border with no faults");
    }
    for (const auto& [step, frame] : frames) h = hash_tensor(frame, h);
    return h;
  };
}

// Elastic kill -> adopt -> resume cycle: rank 1 dies at a step boundary
// mid-rollout, the survivors detect it via the heartbeat lease, rebalance and
// recompute the orphaned task from the initial frame (no PPES snapshots, so
// the oracle touches no filesystem state). Detection order, adoption and the
// recomputed frames must all be schedule-independent: every interleaving has
// to converge on the same assignment epoch and bit-identical outputs.
verify::Oracle make_recovery_oracle() {
  const TrainConfig cfg = tiny_config();
  constexpr std::int64_t kGrid = 16;
  core::NetworkTrainer reference(cfg, 0);
  const auto params = core::export_parameters(reference.model());
  ParallelTrainReport report;
  report.ranks = 4;
  report.dims = mpi::dims_create(4);
  const domain::Partition part(kGrid, kGrid, report.dims.px, report.dims.py);
  report.rank_outcomes.resize(4);
  for (int r = 0; r < 4; ++r) {
    auto& outcome = report.rank_outcomes[static_cast<std::size_t>(r)];
    outcome.rank = r;
    outcome.block = part.block_of_rank(r);
    outcome.parameters = params;
  }
  Tensor initial({4, kGrid, kGrid});
  util::Rng rng(42);
  rng.fill_uniform(initial.values(), 0.5f, 1.5f);

  return [cfg, report = std::move(report), initial = std::move(initial)] {
    mpi::fault::KillSpec kill;
    kill.rank = 1;
    kill.at_step = 1;
    mpi::fault::install(mpi::fault::FaultPlan(7).set_kill(kill));
    core::RolloutResult result;
    std::map<int, Tensor> frames;
    try {
      core::RolloutOptions options;
      options.on_frame = keep_last_delivery(frames);
      options.elastic.enabled = true;
      options.elastic.lease = std::chrono::milliseconds(25);
      options.elastic.missed_leases = 6;
      result = core::parallel_rollout(cfg, report, initial, /*steps=*/3,
                                      options);
    } catch (...) {
      mpi::fault::uninstall();
      throw;
    }
    mpi::fault::uninstall();
    if (result.health.recoveries != 1 || result.health.adopted_tasks < 1) {
      throw std::runtime_error("recovery oracle: the killed rank was not "
                               "adopted");
    }
    if (result.degraded_borders != 0) {
      throw std::runtime_error("recovery oracle: a border stayed degraded "
                               "after adoption");
    }
    std::uint64_t h = kFnvSeed;
    for (const auto& [step, frame] : frames) h = hash_tensor(frame, h);
    h = fnv1a(&result.health.assignment_epoch,
              sizeof(result.health.assignment_epoch), h);
    h = fnv1a(&result.health.adopted_tasks, sizeof(result.health.adopted_tasks),
              h);
    return h;
  };
}

// --- seeded order bug (self-test) -------------------------------------------
// Two neighbour ranks send rim bands that OVERLAP on four cells, and the
// receiver applies them in ARRIVAL order with a non-associative blend — the
// class of bug parpde-mc exists to catch (the real rim-band apply uses
// disjoint windows and fixed sources for exactly this reason). Rank 2 delays
// its send so the unperturbed arrival order is stable; a schedule that
// front-runs rank 2's delivery flips the apply order and changes the corner
// cells.
std::uint64_t buggy_rim_oracle() {
  constexpr int kRimTag = 9000;  // user tag space (outside the registry)
  constexpr int kBand = 8;
  constexpr int kOverlapOffset = 4;  // rank 2's band starts 4 cells in
  std::vector<float> tile(16, 1.0f);
  mpi::Environment env(3);
  env.run([&](mpi::Communicator& comm) {
    if (comm.rank() == 1 || comm.rank() == 2) {
      if (comm.rank() == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      std::vector<float> band(kBand);
      for (int i = 0; i < kBand; ++i) {
        band[static_cast<std::size_t>(i)] =
            comm.rank() == 1 ? 0.25f * static_cast<float>(i + 1)
                             : -0.5f * static_cast<float>(i + 1);
      }
      comm.send<float>(0, kRimTag, band);
    }
    // Both bands are queued at rank 0 before any receive runs.
    mpi::barrier(comm);
    if (comm.rank() == 0) {
      for (int k = 0; k < 2; ++k) {
        int src = 0;
        const auto band = comm.recv<float>(mpi::kAnySource, kRimTag, &src);
        const int off = src == 1 ? 0 : kOverlapOffset;
        for (int i = 0; i < kBand; ++i) {
          auto& cell = tile[static_cast<std::size_t>(off + i)];
          cell = cell * 0.5f + band[static_cast<std::size_t>(i)];
        }
      }
    }
  });
  return fnv1a(tile.data(), tile.size() * sizeof(float), kFnvSeed);
}

// --- driver ------------------------------------------------------------------

struct OracleDef {
  const char* name;
  int target_distinct;
  std::function<verify::Oracle()> make;
};

// Per-oracle schedule-space size differs by construction: the rollout and the
// post-resume rollout inside the checkpoint cycle carry live halo traffic
// whose delivery order the scheduler permutes freely, while a concurrent-mode
// training epoch is communication-free (the paper's central claim) so its
// schedule space collapses to a single equivalence class — parpde-mc verifying
// distinct=1 for the trainer oracle is that claim, checked.
const OracleDef kOracles[] = {
    {"rollout", 160, make_rollout_oracle},
    {"trainer", 50, make_trainer_oracle},
    {"checkpoint", 60, make_checkpoint_oracle},
    {"recovery", 40, make_recovery_oracle},
};

void write_fail_spec(const std::string& path, const std::string& oracle,
                     const verify::Schedule& schedule) {
  if (path.empty()) return;
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "oracle=%s\nPARPDE_SCHEDULE=%s\n", oracle.c_str(),
                 schedule.spec().c_str());
    std::fclose(f);
  }
}

int run_oracle(const OracleDef& def, std::uint64_t seed, int distinct_override,
               int runs_override, int min_distinct,
               const std::string& fail_spec_out) {
  const verify::Oracle oracle = def.make();
  verify::ExploreOptions opt;
  opt.base_seed = seed;
  opt.target_distinct =
      distinct_override > 0 ? distinct_override : def.target_distinct;
  opt.max_runs = runs_override;
  const auto res = verify::explore(oracle, opt);
  std::printf(
      "[parpde-mc] oracle=%s runs=%d distinct=%d perturbed=%llu "
      "order_sensitive=%llu%s\n",
      def.name, res.runs, res.distinct,
      static_cast<unsigned long long>(res.perturbed),
      static_cast<unsigned long long>(res.order_sensitive),
      res.failed ? " FAILED" : "");
  if (!res.failed) {
    if (res.distinct < min_distinct) {
      std::printf("[parpde-mc] UNDER-EXPLORED: %d distinct schedules < "
                  "required %d (raise --runs or check the hooks)\n",
                  res.distinct, min_distinct);
      return 1;
    }
    return 0;
  }
  std::printf("[parpde-mc] failure: %s\n", res.failure.c_str());
  std::printf("[parpde-mc] failing schedule: %s\n",
              res.failing_schedule.spec().c_str());
  const auto shrunk =
      verify::shrink(oracle, res.reference_hash, res.failing_schedule);
  std::printf("[parpde-mc] shrunk (%s, %d trials): PARPDE_SCHEDULE=\"%s\"\n",
              shrunk.reproduced ? "reproduced" : "did NOT replay",
              shrunk.trials, shrunk.schedule.spec().c_str());
  std::printf("[parpde-mc] replay: PARPDE_SCHEDULE=\"%s\" parpde_mc "
              "--oracle=%s --replay\n",
              shrunk.schedule.spec().c_str(), def.name);
  write_fail_spec(fail_spec_out, def.name, shrunk.schedule);
  return 1;
}

int run_replay(const OracleDef& def, const std::string& spec) {
  const verify::Oracle oracle = def.make();
  // Reference hash from an inert schedule, then the replayed spec.
  verify::install([] {
    verify::Schedule ref;
    ref.perturb_pct = 0;
    ref.yields = false;
    return ref;
  }());
  const std::uint64_t reference = oracle();
  verify::uninstall();
  verify::install(verify::Schedule::parse(spec));
  std::uint64_t replayed = 0;
  std::string error;
  try {
    replayed = oracle();
  } catch (const std::exception& e) {
    error = e.what();
  }
  const auto rep = verify::report();
  verify::uninstall();
  if (!error.empty()) {
    std::printf("[parpde-mc] replay FAILED (error): %s\n", error.c_str());
    return 1;
  }
  std::printf("[parpde-mc] replay %s: perturbed=%llu order_sensitive=%llu\n",
              replayed == reference ? "matched the reference"
                                    : "DIVERGED from the reference",
              static_cast<unsigned long long>(rep.perturbed),
              static_cast<unsigned long long>(rep.order_sensitive));
  return replayed == reference ? 0 : 1;
}

int run_self_test(const std::string& fail_spec_out) {
  verify::ExploreOptions opt;
  opt.base_seed = 42;
  opt.target_distinct = 1000;  // explore until the bug fires or runs cap out
  opt.max_runs = 64;
  opt.perturb_pct = 60;
  opt.yields = false;
  const auto res = verify::explore(buggy_rim_oracle, opt);
  if (!res.failed) {
    std::printf("[parpde-mc] SELF-TEST FAILED: the seeded rim-band order bug "
                "was not detected in %d runs\n",
                res.runs);
    return 1;
  }
  const auto shrunk =
      verify::shrink(buggy_rim_oracle, res.reference_hash,
                     res.failing_schedule);
  if (!shrunk.reproduced || shrunk.schedule.only.size() != 1) {
    std::printf("[parpde-mc] SELF-TEST FAILED: shrink did not reduce to one "
                "delivery key (reproduced=%d, keys=%zu)\n",
                shrunk.reproduced ? 1 : 0, shrunk.schedule.only.size());
    return 1;
  }
  // The minimal spec must replay deterministically, and the flipped receive
  // must be flagged as order-sensitive (concurrent any-source candidates).
  for (int i = 0; i < 3; ++i) {
    verify::install(shrunk.schedule);
    const std::uint64_t h = buggy_rim_oracle();
    const auto rep = verify::report();
    verify::uninstall();
    if (h == res.reference_hash) {
      std::printf("[parpde-mc] SELF-TEST FAILED: shrunk spec did not replay "
                  "on attempt %d\n", i);
      return 1;
    }
    if (rep.order_sensitive == 0) {
      std::printf("[parpde-mc] SELF-TEST FAILED: flipped any-source receive "
                  "was not flagged order-sensitive\n");
      return 1;
    }
  }
  write_fail_spec(fail_spec_out, "self-test", shrunk.schedule);
  std::printf("[parpde-mc] self-test OK: bug caught after %d runs, shrunk in "
              "%d trials to PARPDE_SCHEDULE=\"%s\"\n",
              res.runs, shrunk.trials, shrunk.schedule.spec().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: parpde_mc --oracle=rollout|trainer|checkpoint|recovery"
               "|all "
               "[--distinct=N] [--min-distinct=N] [--runs=N] [--seed=S] "
               "[--replay=SPEC] [--fail-spec-out=PATH] | --self-test\n");
  return 2;
}

}  // namespace
}  // namespace parpde

int main(int argc, char** argv) {
  using namespace parpde;
  std::string oracle_name;
  std::string replay_spec;
  std::string fail_spec_out;
  std::uint64_t seed = 1;
  int distinct = 0;
  int min_distinct = 0;
  int runs = 0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--oracle=")) {
      oracle_name = v;
    } else if (const char* v = value("--replay=")) {
      replay_spec = v;
    } else if (const char* v = value("--fail-spec-out=")) {
      fail_spec_out = v;
    } else if (const char* v = value("--seed=")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--distinct=")) {
      distinct = std::atoi(v);
    } else if (const char* v = value("--min-distinct=")) {
      min_distinct = std::atoi(v);
    } else if (const char* v = value("--runs=")) {
      runs = std::atoi(v);
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      return usage();
    }
  }

  // Deadlock-freedom and mailbox-leak-freedom oracles: the validator watchdog
  // turns any schedule-induced hang into validate::DeadlockError, and the
  // finalize check turns an undelivered message into validate::LeakError.
  mpi::validate::set_enabled(true);
  mpi::validate::set_timeout_ms(20000);
  // Two pool workers so chunk-claim order is a real scheduling axis even on a
  // single-core host (parallel_for must stay bit-deterministic regardless).
  util::ThreadPool::configure_global(2);

  if (self_test) return run_self_test(fail_spec_out);
  if (oracle_name.empty()) return usage();

  if (!replay_spec.empty()) {
    for (const auto& def : kOracles) {
      if (oracle_name == def.name) return run_replay(def, replay_spec);
    }
    return usage();
  }

  int rc = 0;
  bool matched = false;
  for (const auto& def : kOracles) {
    if (oracle_name != "all" && oracle_name != def.name) continue;
    matched = true;
    rc |= run_oracle(def, seed, distinct, runs, min_distinct, fail_spec_out);
  }
  return matched ? rc : usage();
}
