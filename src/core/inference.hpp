#pragma once

// Parallel autoregressive inference (Sec. III, "Inference"): every subdomain
// task predicts its own block; between time steps the block boundaries are
// exchanged with the four neighbours through point-to-point messages, exactly
// like a domain-decomposed classical solver. parallel_rollout is one
// task-keyed step loop: one task per rank by default, several per rank under
// the elastic runtime, which also adds heartbeats and recovery
// (elastic/rollout.hpp). The sequential (monolithic) rollout is provided for
// the equivalence tests and accuracy baselines.

#include <functional>

#include "core/config.hpp"
#include "core/parallel_trainer.hpp"
#include "core/trainer.hpp"
#include "domain/exchange.hpp"

namespace parpde::nn {
class ForwardPlan;
class Sequential;
}  // namespace parpde::nn

namespace parpde::backend {
class KernelBackend;
}  // namespace parpde::backend

namespace parpde::core {

// The rollout loop parallel_rollout runs. There is exactly one (the elastic
// runtime is selected by RolloutOptions::elastic, not by this enum); the enum
// and RolloutOptions::engine remain only because the frozen perfbench/
// sources assign them, and go the next time perfbench/ changes.
enum class RolloutEngine {
  // One step: post every hosted task's border strips (HaloExchange::begin),
  // receive the neighbours' into the halo-padded tiles (finish), run each
  // task's pre-sized ForwardPlan once on its whole tile, and hand the outputs
  // to the deferred frame gather. All per-layer activations, conv
  // workspaces and halo staging buffers are pre-sized at rollout start, so
  // the steady-state step performs zero heap allocations. Bit-identical to stepping every
  // subdomain network on halo-extended tiles of the previous full frame (the
  // oracle in tests/helpers.hpp).
  kOverlapped,
};

// Elastic runtime knobs (src/elastic/): over-decompose the grid into
// M = trained.ranks subdomain tasks hosted on P = M / tasks_per_rank ranks,
// detect rank death through missed heartbeat leases, and have survivors
// adopt the orphaned tasks (deterministic rebalance + rollback to the newest
// common PPES state snapshot), so a mid-rollout kill ends as a bounded blip
// instead of a permanently degraded border. Disabled by default: the step
// loop then hosts task t on rank t and skips the heartbeat, recovery and
// snapshot steps; everything else (exchange, forward, health scan, gather)
// is the same code either way. See docs/robustness.md ("Recovery
// protocol").
struct ElasticOptions {
  bool enabled = false;
  // The trained report must hold tasks_per_rank * P rank outcomes; the
  // rollout runs P physical ranks, each initially owning tasks_per_rank
  // tasks (task t starts on rank t % P).
  int tasks_per_rank = 1;
  // false = detect but do not adopt: the dead rank's tasks stay orphaned and
  // their borders degrade permanently (the pre-elastic behaviour).
  bool recover = true;
  // One heartbeat lease interval; a peer is declared dead after
  // `missed_leases` consecutive intervals without any sign of life while
  // someone is waiting on it. The budget must exceed the worst per-step
  // compute skew between ranks or a slow rank gets falsely evicted.
  std::chrono::milliseconds lease{250};
  int missed_leases = 20;
  // PPES per-task state snapshots every `state_every` steps into
  // `state_dir` (elastic/state_checkpoint.hpp). Empty dir or state_every
  // <= 0 disables snapshots; recovery then rolls every task back to the
  // initial frame and recomputes — still bit-identical, just slower.
  std::string state_dir;
  int state_every = 0;
};

struct RolloutOptions {
  domain::HaloOptions halo;
  ElasticOptions elastic;
  RolloutEngine engine = RolloutEngine::kOverlapped;  // the only engine
  // Gather the full frame on rank 0 every `record_every`-th step (the final
  // step is always recorded so callers get the end state); <= 0 disables
  // recording entirely. The gather is deferred and double-buffered: non-root
  // strip sends overlap the next step's compute and rank 0 collects up to two
  // recorded steps behind, into one full-grid buffer reused for every frame.
  int record_every = 1;
  // Sink for the recorded frames: called on rank 0's thread, in step order,
  // right after a recorded step's frame is collected, with the 0-based step
  // (the prediction of step k estimates frame t0+k+1). `frame` is the reused
  // gather buffer, valid only during the call: a caller that wants a history
  // copies what it needs. Under elastic recovery the steps after the rollback
  // line are recomputed and delivered again, so the order restarts there; a
  // later delivery of a step supersedes the earlier one. Empty = no sink (RolloutResult::frames still
  // gets the final frame). The sink must not throw.
  std::function<void(int step, const Tensor& frame)> on_frame;
  // Execution provider for the per-step forward passes (see src/backend/):
  // nullptr = the reference fp32 backend. The int8 backend
  // (backend::quantized_int8()) calibrates activation scales from the initial
  // frame on each rank before the first step and rejects deconv mode (its
  // transpose conv runs on fp32 only). Halo exchange always stages fp32 —
  // quantization is internal to the conv kernels, never on the wire.
  const backend::KernelBackend* backend = nullptr;
  // Always-on health monitor (RolloutResult::health): per-step NaN/Inf scan
  // of each rank's output, interface-residual probes at subdomain seams, and
  // int8 saturation accounting. Zero allocations; its per-step cost is part
  // of the rollout_64_int8 benchmark workload's step time, which runs with
  // the monitor on (perfbench/README.md).
  bool monitor_health = true;
};

// Rollout health summary, populated whenever RolloutOptions::monitor_health
// is set (the default). `parpde_cli rollout` prints it under --health-report
// and exits nonzero when non-finite values appeared.
struct HealthReport {
  // Non-finite (NaN/Inf) values seen across all ranks' step outputs.
  std::uint64_t nonfinite_values = 0;
  // First step / rank where a non-finite value appeared (-1 = never).
  int first_nonfinite_step = -1;
  int first_nonfinite_rank = -1;
  // Largest interface residual (mean |received halo line − adjacent interior
  // line|) observed at any subdomain seam — the stitching-error gauge.
  double max_interface_residual = 0.0;
  // Int8 quantizer values that clipped at the uint8 clamp during this rollout
  // (delta of the backend.int8.saturated counter). Persistent saturation
  // means the calibrated activation scale no longer covers the data.
  std::uint64_t quant_saturations = 0;
  // Mirror of RolloutResult::degraded_borders for one-stop health checks.
  int degraded_borders = 0;

  // Elastic recovery summary (all zero unless the elastic runtime ran and a
  // rank died): how many recovery rounds completed, how many orphaned tasks
  // the survivors adopted, where/how fast the death was detected, and how
  // long the deterministic rebalance + state rollback took (max over ranks).
  int recoveries = 0;
  int adopted_tasks = 0;
  int failed_ranks = 0;
  int detection_step = -1;
  double detection_seconds = 0.0;
  double rebalance_seconds = 0.0;
  // Version of the task->rank Assignment at the end of the run (0 = the
  // initial map, +1 per rebalance); also the `recover.assignment_epoch`
  // telemetry gauge.
  int assignment_epoch = 0;
  // Borders that transiently degraded during detection and were healthy
  // again after adoption (the degrade -> detect -> adopt -> healthy blip).
  int degraded_during_recovery = 0;

  [[nodiscard]] bool nonfinite() const { return first_nonfinite_step >= 0; }
};

struct RolloutResult {
  // Name of the execution provider the rollout ran on ("fp32", "int8").
  std::string backend;
  // The final recorded frame (the last step's prediction, gathered on rank
  // 0): one entry, or none when record_every <= 0. Earlier frames go only to
  // RolloutOptions::on_frame, so the rollout's memory does not grow with the
  // step count. A vector only because the frozen perfbench/ sources read
  // `frames.back()`; it becomes a plain Tensor the next time perfbench/
  // changes.
  std::vector<Tensor> frames;
  // Wall time of each step as seen by rank 0 (drives the bench's p50/p99).
  std::vector<double> step_seconds;
  double comm_seconds = 0.0;     // max over ranks, halo exchange only
  double compute_seconds = 0.0;  // max over ranks, forward passes
  std::uint64_t halo_bytes = 0;  // total halo bytes sent over all ranks
  // Recv side of the halo traffic (balances halo_bytes across ranks; the
  // send-only accounting the original counters forced under-reported the
  // per-rank communication volume by construction).
  std::uint64_t halo_bytes_received = 0;
  std::uint64_t bytes_sent = 0;      // all traffic incl. frame gathers
  std::uint64_t bytes_received = 0;  // all traffic incl. frame gathers
  // Fault-degradation outcome: borders that lost their neighbour mid-rollout
  // and fell back to the zero-padding treatment (docs/robustness.md). Zero /
  // empty on a healthy run.
  int degraded_borders = 0;
  // e.g. "rank 2: e,n"; "task 2: e,n" under the elastic runtime.
  std::vector<std::string> degraded_detail;
  // Always 0: the step runs its forward after the halo strips land, so no
  // compute overlaps them. Kept only because the frozen perfbench/ sources
  // read it; it goes, with RolloutEngine, the next time perfbench/ changes.
  double overlap_seconds = 0.0;
  // Total buffer regrowths after the warm-up step, summed over ranks (plan
  // activations, conv workspaces, halo staging); also exported as the
  // `inference.steady_state_allocs` telemetry counter. 0 means those buffers
  // stopped growing, not that the step is allocation-free: minimpi's
  // per-message payloads and mailbox nodes are not counted.
  std::uint64_t steady_state_allocs = 0;
  // Health-monitor summary (see HealthReport); all-zero when
  // RolloutOptions::monitor_health was false.
  HealthReport health;
};

// Multi-step rollout with the per-rank models of a ParallelTrainReport,
// starting from global frame `initial` ([C, H, W]). Requires border mode
// kZeroPad (communication-free inference with zero borders) or kHaloPad
// (p2p halo exchange per step); kValidInner cannot roll out because its
// output loses the subdomain rim (the limitation Sec. III points out).
//
// Halo receives are bounded by `options.halo`; a border whose neighbour is
// definitively lost degrades (sticky, per task) to zero padding and the
// rollout keeps going — it never deadlocks under message loss, with the
// elastic runtime on or off.
RolloutResult parallel_rollout(const TrainConfig& config,
                               const ParallelTrainReport& trained,
                               const Tensor& initial, int steps,
                               const RolloutOptions& options);

// Monolithic rollout with a single full-domain network.
std::vector<Tensor> sequential_rollout(NetworkTrainer& trainer,
                                       const Tensor& initial, int steps);

// Rebuilds one standalone network from a config plus exported parameter
// values (the build_model + import_parameters idiom every inference consumer
// kept re-rolling). The serving layer (serve::SurrogateServer), the CLI
// `serve` command and the serve_64_int8 benchmark workload all load session
// models through this.
[[nodiscard]] std::unique_ptr<nn::Sequential> rebuild_model(
    const TrainConfig& config, const std::vector<Tensor>& parameters);

// Serial convenience wrapper around the per-rank models of a trained report:
// rebuilds every subdomain network once and evaluates full-domain one-step
// predictions without spinning up an Environment (validation/metrics path,
// not the production inference path). Subdomains are evaluated in parallel on
// the global ThreadPool (disjoint output blocks — deterministic at any worker
// count) with per-subdomain input/plan buffers reused across calls; a single
// instance is therefore NOT safe to call from several threads at once.
class SubdomainEnsemble {
 public:
  SubdomainEnsemble(const TrainConfig& config, const ParallelTrainReport& trained,
                    std::int64_t grid_h, std::int64_t grid_w);
  ~SubdomainEnsemble();

  // One-step prediction assembled over all subdomains: [C,H,W] -> [C,H,W].
  [[nodiscard]] Tensor predict(const Tensor& frame) const;

  [[nodiscard]] const domain::Partition& partition() const { return partition_; }

 private:
  TrainConfig config_;
  domain::Partition partition_;
  std::int64_t halo_;
  std::vector<std::unique_ptr<nn::Sequential>> models_;
  // Per-subdomain pre-sized forward plans and input staging, reused across
  // predict() calls.
  std::vector<std::unique_ptr<nn::ForwardPlan>> plans_;
  mutable std::vector<Tensor> inputs_;
};

}  // namespace parpde::core
