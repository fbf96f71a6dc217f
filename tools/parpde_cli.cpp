// parpde command-line driver: runs the full pipeline of the paper as separate
// stages connected by files, so datasets and trained ensembles can be reused
// across processes.
//
//   parpde_cli simulate --pde=euler --grid=64 --frames=100 --out=frames.ppfr
//   parpde_cli train    --data=frames.ppfr --ranks=4 --epochs=20
//                       --out=model.ppde
//   parpde_cli eval     --data=frames.ppfr --model=model.ppde
//   parpde_cli rollout  --data=frames.ppfr --model=model.ppde --steps=5
//   parpde_cli info     --model=model.ppde
//   parpde_cli info     --data=frames.ppfr

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "core/checkpoint.hpp"
#include "core/inference.hpp"
#include "core/metrics.hpp"
#include "core/parallel_trainer.hpp"
#include "data/dataset.hpp"
#include "euler/simulate.hpp"
#include "minimpi/fault.hpp"
#include "pde/advection.hpp"
#include "serve/surrogate_server.hpp"
#include "util/ascii_plot.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"

#include "latency_stats.hpp"

using namespace parpde;
using namespace parpde::core;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: parpde_cli <simulate|train|eval|rollout|serve|info> "
               "[--flags]\n"
               "  simulate --pde=euler|advection --grid=N --frames=N "
               "[--steps-per-frame=N] --out=FILE\n"
               "  train    --data=FILE --out=FILE [--ranks=N] [--epochs=N] "
               "[--threads=N] [--loss=mape|mse|mae] [--border=halo|zero|valid]"
               " [--lr=X]\n"
               "           [--checkpoint-dir=DIR] [--checkpoint-every=N] "
               "[--resume]\n"
               "           [--tasks-per-rank=N]   (over-decompose: each rank\n"
               "                             trains N subdomain tasks; enables\n"
               "                             the elastic rollout runtime)\n"
               "  eval     --data=FILE --model=FILE [--train-fraction=X]\n"
               "  rollout  --data=FILE --model=FILE [--steps=N] [--start=N] "
               "[--render]\n"
               "           [--halo-timeout-ms=N] [--halo-retries=N] "
               "[--record-every=N]\n"
               "           [--backend=fp32|int8]   (execution provider; int8\n"
               "                             runs the quantized conv kernels,\n"
               "                             see docs/performance.md)\n"
               "           [--health-report]   (print the rollout health\n"
               "                             summary: NaN/Inf, seam residuals,\n"
               "                             int8 saturation, degradations)\n"
               "           [--elastic]   (self-healing elastic runtime:\n"
               "                             over-decomposed tasks, heartbeat\n"
               "                             failure detection, live adoption;\n"
               "                             see docs/robustness.md)\n"
               "           [--tasks-per-rank=N] [--lease-ms=N] [--no-recover]\n"
               "           [--state-dir=DIR] [--state-every=N]   (PPES rollout\n"
               "                             state snapshots for adoption)\n"
               "  serve    --model=FILE [--sessions=N] [--steps=N] "
               "[--backend=fp32|int8]\n"
               "           [--grid=N]   (synthetic seeded sessions; default)\n"
               "           [--data=FILE --start=N]   (replay-client mode:\n"
               "                             sessions start from successive\n"
               "                             recorded frames)\n"
               "           [--serial]   (disable cross-session coalescing;\n"
               "                             one request per dispatch)\n"
               "           [--max-batch=N] [--window-ms=X] [--queue-depth=N]\n"
               "           [--deadline-ms=X]   (per-request deadline; late\n"
               "                             queued requests are rejected)\n"
               "           requires a zero-padded model (--border=zero);\n"
               "           see docs/serving.md\n"
               "  info     --model=FILE | --data=FILE\n"
               "observability flags (any command; see docs/observability.md):\n"
               "  --trace=FILE      Chrome trace-event JSON of the run's spans,\n"
               "                    with cross-rank flow arrows on every halo\n"
               "                    message (analyze with tools/parpde_trace.py)\n"
               "  --metrics=FILE    JSONL run report (per rank per epoch +\n"
               "                    summary with comm/compute split)\n"
               "  --log-level=debug|info|warn|error   (or PARPDE_LOG_LEVEL)\n"
               "exit codes: 0 ok | 1 runtime error | 2 usage | 3 requested\n"
               "  --trace/--metrics file could not be written | 4 rollout\n"
               "  produced non-finite values\n"
               "robustness (see docs/robustness.md):\n"
               "  PARPDE_FAULT env  seeded fault plan (message drop/delay/dup/\n"
               "                    corrupt, rank kill); train checkpoints +\n"
               "                    --resume restart bit-identically\n");
  return 2;
}

std::string json_int_array(const std::vector<int>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string json_string_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += '"';
    for (const char c : values[i]) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  }
  return out + "]";
}

// Injected-fault deaths as JSON objects: which rank, the epoch/step boundary
// where it died (-1 when not applicable), and the RankFailure message.
std::string json_rank_failures(
    const std::vector<RankFailureRecord>& failures) {
  std::string out = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i != 0) out += ",";
    telemetry::JsonObject obj;
    obj.field("rank", failures[i].rank)
        .field("epoch", static_cast<std::int64_t>(failures[i].epoch))
        .field("step", static_cast<std::int64_t>(failures[i].step))
        .field("error", failures[i].error);
    out += obj.str();
  }
  return out + "]";
}

std::string require(const util::Options& opts, const std::string& key) {
  const std::string v = opts.get_string(key, "");
  if (v.empty()) {
    std::fprintf(stderr, "missing required --%s\n", key.c_str());
    std::exit(2);
  }
  return v;
}

int cmd_simulate(const util::Options& opts) {
  const std::string out = require(opts, "out");
  const std::string pde = opts.get_string("pde", "euler");
  const int frames = opts.get_int("frames", 100);
  const int spf = opts.get_int("steps-per-frame", 4);
  if (pde == "euler") {
    euler::EulerConfig config;
    config.n = opts.get_int("grid", 64);
    euler::SimulateOptions sim_opts;
    sim_opts.num_frames = frames;
    sim_opts.steps_per_frame = spf;
    const auto sim = euler::simulate(config, sim_opts);
    data::save_frames(out, sim.frames);
    std::printf("wrote %zu linearized-Euler frames (%dx%d, frame dt %.5f) to %s\n",
                sim.frames.size(), config.n, config.n, sim.frame_dt,
                out.c_str());
  } else if (pde == "advection") {
    pde::AdvectionConfig config;
    config.n = opts.get_int("grid", 64);
    const auto sim = pde::simulate_advection(config, frames, spf);
    data::save_frames(out, sim.frames);
    std::printf("wrote %zu advection-diffusion frames (%dx%d) to %s\n",
                sim.frames.size(), config.n, config.n, out.c_str());
  } else {
    std::fprintf(stderr, "unknown --pde=%s\n", pde.c_str());
    return 2;
  }
  return 0;
}

TrainConfig config_from_options(const util::Options& opts,
                                std::int64_t channels) {
  TrainConfig config;
  if (channels != 4) {
    // Keep the Table-I interior but adapt the input/output channel count to
    // the dataset (e.g. the single-channel advection data).
    config.network.channels = {channels, 6, 16, 6, channels};
  }
  config.border =
      border_mode_from_string(opts.get_string("border", "halo-pad"));
  config.loss = opts.get_string("loss", "mape");
  config.optimizer = opts.get_string("optimizer", "adam");
  config.learning_rate = opts.get_double("lr", 1e-2);
  config.epochs = opts.get_int("epochs", 20);
  config.batch_size = opts.get_int("batch-size", 16);
  config.train_fraction = opts.get_double("train-fraction", 2.0 / 3.0);
  // Intra-rank pool threads (0 = auto; ranks x threads capped at hardware).
  config.num_threads = opts.get_int("threads", 0);
  return config;
}

// Unified per-rank run report: one JSONL record per rank per epoch, a
// per-rank comm summary, and a final record with the comm/compute split plus
// the registry counters (gemm flops, pool activity, traffic totals).
// Returns false when the report could not be opened or fully written — the
// caller turns that into exit code 3 (a run report the user asked for but
// never got is a failed run, not a warning).
bool write_train_metrics(const std::string& path,
                         const ParallelTrainReport& report) {
  telemetry::JsonlWriter writer(path);
  if (!writer.ok()) {
    std::fprintf(stderr, "error: cannot open --metrics file %s\n",
                 path.c_str());
    return false;
  }
  std::uint64_t sent_total = 0;
  std::uint64_t recv_total = 0;
  for (const auto& outcome : report.rank_outcomes) {
    for (std::size_t e = 0; e < outcome.result.epochs.size(); ++e) {
      const auto& stats = outcome.result.epochs[e];
      telemetry::JsonObject record;
      record.field("record", "epoch")
          .field("rank", outcome.rank)
          .field("epoch", static_cast<std::int64_t>(e))
          .field("loss", stats.loss)
          .field("val_loss", stats.val_loss)
          .field("seconds", stats.seconds);
      writer.write_line(record.str());
    }
    telemetry::JsonObject record;
    record.field("record", "rank_summary")
        .field("rank", outcome.rank)
        .field("final_loss", outcome.result.final_loss())
        .field("train_seconds", outcome.result.seconds)
        .field("bytes_sent", outcome.train_bytes_sent)
        .field("bytes_received", outcome.train_bytes_received);
    writer.write_line(record.str());
    sent_total += outcome.train_bytes_sent;
    recv_total += outcome.train_bytes_received;
  }
  auto& registry = telemetry::Registry::global();
  telemetry::JsonObject summary;
  summary.field("record", "run_summary")
      .field("ranks", report.ranks)
      .field("wall_seconds", report.wall_seconds)
      .field("compute_seconds", report.total_work_seconds())
      .field("comm_seconds",
             telemetry::histogram("halo.exchange_seconds").sum())
      .field("bytes_sent_total", sent_total)
      .field("bytes_received_total", recv_total)
      .raw("retrained_ranks", json_int_array(report.retrained_ranks))
      .raw("rank_failures", json_rank_failures(report.failures))
      .raw("metrics", registry.metrics_json());
  writer.write_line(summary.str());
  if (!writer.close()) {
    std::fprintf(stderr, "error: failed writing --metrics file %s\n",
                 path.c_str());
    return false;
  }
  std::printf("wrote run report to %s\n", path.c_str());
  return true;
}

int cmd_train(const util::Options& opts) {
  const std::string data_path = require(opts, "data");
  const std::string out = require(opts, "out");
  const int ranks = opts.get_int("ranks", 4);
  const int tasks_per_rank = opts.get_int("tasks-per-rank", 1);
  if (tasks_per_rank < 1) {
    std::fprintf(stderr, "--tasks-per-rank must be >= 1\n");
    return 2;
  }
  const data::FrameDataset dataset(data::load_frames(data_path));
  const TrainConfig config = config_from_options(opts, dataset.channels());

  std::printf("training %d subdomain networks on %lld pairs (%s, %s)...\n",
              ranks * tasks_per_rank,
              static_cast<long long>(dataset.num_pairs()), config.loss.c_str(),
              border_mode_name(config.border).c_str());
  const ParallelTrainer trainer(config, ranks, tasks_per_rank);

  FaultToleranceOptions fault_tolerance;
  fault_tolerance.checkpoint_dir = opts.get_string("checkpoint-dir", "");
  fault_tolerance.checkpoint_every = opts.get_int(
      "checkpoint-every", fault_tolerance.checkpoint_dir.empty() ? 0 : 1);
  fault_tolerance.resume = opts.get_bool("resume", false);
  if (fault_tolerance.resume && fault_tolerance.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return 2;
  }
  // Engage the fault-tolerant path whenever the user asked for checkpoints or
  // a fault plan is live; otherwise keep the plain (byte-identical) call.
  const bool tolerant = !fault_tolerance.checkpoint_dir.empty() ||
                        fault_tolerance.resume || mpi::fault::enabled();
  const auto report =
      trainer.train(dataset, ExecutionMode::kConcurrent, nullptr,
                    tolerant ? &fault_tolerance : nullptr);

  util::Table table({"rank", "final loss", "time [s]", "sent [B]", "recv [B]"});
  for (const auto& outcome : report.rank_outcomes) {
    table.add_row({std::to_string(outcome.rank),
                   util::Table::fmt_sci(outcome.result.final_loss()),
                   util::Table::fmt(outcome.result.seconds, 2),
                   std::to_string(outcome.train_bytes_sent),
                   std::to_string(outcome.train_bytes_received)});
  }
  table.print("per-rank training:");
  if (!report.retrained_ranks.empty()) {
    std::string list;
    for (const int r : report.retrained_ranks) {
      if (!list.empty()) list += ", ";
      list += std::to_string(r);
    }
    std::printf("retrained after rank failure: %s (see docs/robustness.md)\n",
                list.c_str());
  }
  bool metrics_ok = true;
  if (opts.has("metrics")) {
    metrics_ok = write_train_metrics(opts.get_string("metrics", ""), report);
  }
  // The ensemble is saved even when the run report failed — the training is
  // not lost — but the exit code still reports the observability failure.
  save_ensemble(out, make_checkpoint(config, report));
  std::printf("saved ensemble to %s\n", out.c_str());
  return metrics_ok ? 0 : 3;
}

// Rebuilds the minimal TrainConfig inference needs from a checkpoint.
TrainConfig inference_config(const EnsembleCheckpoint& checkpoint) {
  TrainConfig config;
  config.network = checkpoint.network;
  config.border = checkpoint.border;
  return config;
}

int cmd_eval(const util::Options& opts) {
  const auto checkpoint = load_ensemble(require(opts, "model"));
  const data::FrameDataset dataset(data::load_frames(require(opts, "data")));
  const double fraction = opts.get_double("train-fraction", 2.0 / 3.0);
  const TrainConfig config = inference_config(checkpoint);
  const SubdomainEnsemble ensemble(config, checkpoint.report, dataset.height(),
                                   dataset.width());
  const auto split = dataset.chronological_split(fraction);

  std::vector<double> mape(static_cast<std::size_t>(dataset.channels()), 0.0);
  std::vector<double> rel(static_cast<std::size_t>(dataset.channels()), 0.0);
  for (const auto pair : split.val) {
    const auto metrics =
        channel_metrics(ensemble.predict(dataset.frame(pair)),
                        dataset.frame(pair + 1));
    for (std::size_t c = 0; c < metrics.size(); ++c) {
      mape[c] += metrics[c].mape;
      rel[c] += metrics[c].rel_l2;
    }
  }
  util::Table table({"channel", "MAPE[%]", "rel-L2"});
  for (std::int64_t c = 0; c < dataset.channels(); ++c) {
    const auto n = static_cast<double>(split.val.size());
    table.add_row({channel_name(c),
                   util::Table::fmt(mape[static_cast<std::size_t>(c)] / n, 3),
                   util::Table::fmt_sci(rel[static_cast<std::size_t>(c)] / n)});
  }
  table.print("one-step validation metrics (" +
              std::to_string(split.val.size()) + " frames):");
  return 0;
}

int cmd_rollout(const util::Options& opts) {
  const auto checkpoint = load_ensemble(require(opts, "model"));
  const data::FrameDataset dataset(data::load_frames(require(opts, "data")));
  const TrainConfig config = inference_config(checkpoint);
  const int steps = opts.get_int("steps", 5);
  const auto start =
      static_cast<std::int64_t>(opts.get_int("start", static_cast<int>(
          dataset.num_pairs() * 2 / 3)));
  if (start < 0 || start + steps >= dataset.num_frames()) {
    std::fprintf(stderr, "rollout window [%lld, %lld] exceeds the dataset\n",
                 static_cast<long long>(start),
                 static_cast<long long>(start + steps));
    return 2;
  }
  RolloutOptions rollout_options;
  rollout_options.halo.recv_timeout =
      std::chrono::milliseconds(opts.get_int("halo-timeout-ms", 250));
  rollout_options.halo.max_retries = opts.get_int("halo-retries", 40);
  rollout_options.record_every = opts.get_int("record-every", 1);
  rollout_options.elastic.enabled = opts.get_bool("elastic", false);
  rollout_options.elastic.tasks_per_rank = opts.get_int("tasks-per-rank", 1);
  rollout_options.elastic.recover = !opts.get_bool("no-recover", false);
  rollout_options.elastic.lease =
      std::chrono::milliseconds(opts.get_int("lease-ms", 250));
  rollout_options.elastic.missed_leases = opts.get_int("missed-leases", 20);
  rollout_options.elastic.state_dir = opts.get_string("state-dir", "");
  rollout_options.elastic.state_every = opts.get_int(
      "state-every", rollout_options.elastic.state_dir.empty() ? 0 : 1);
  if (!rollout_options.elastic.enabled &&
      rollout_options.elastic.tasks_per_rank != 1) {
    std::fprintf(stderr, "--tasks-per-rank requires --elastic\n");
    return 2;
  }
  const std::string backend_name = opts.get_string("backend", "fp32");
  rollout_options.backend = backend::by_name(backend_name);
  if (rollout_options.backend == nullptr) {
    std::fprintf(stderr, "unknown --backend=%s (fp32 or int8)\n",
                 backend_name.c_str());
    return 2;
  }
  // Each recorded frame is compared with its truth as it arrives (the
  // rollout keeps only the final frame). A step delivered again after an
  // elastic rollback overwrites its earlier error.
  std::map<int, double> curve;  // 1-based step -> rel-L2
  rollout_options.on_frame = [&](int step, const Tensor& frame) {
    curve[step + 1] =
        overall_metrics(frame, dataset.frame(start + step + 1)).rel_l2;
  };
  const auto result = parallel_rollout(config, checkpoint.report,
                                       dataset.frame(start), steps,
                                       rollout_options);
  util::Table table({"step", "rel-L2"});
  for (const auto& [step, rel_l2] : curve) {
    table.add_row({std::to_string(step), util::Table::fmt_sci(rel_l2)});
  }
  table.print("rollout error from frame " + std::to_string(start) + ":");
  std::printf(
      "halo traffic %llu sent / %llu received bytes | comm %.4fs | "
      "compute %.4fs\n",
      static_cast<unsigned long long>(result.halo_bytes),
      static_cast<unsigned long long>(result.halo_bytes_received),
      result.comm_seconds, result.compute_seconds);
  if (result.degraded_borders > 0) {
    std::fprintf(stderr,
                 "warning: %d border(s) degraded to zero padding after halo "
                 "message loss (docs/robustness.md):\n",
                 result.degraded_borders);
    for (const auto& line : result.degraded_detail) {
      std::fprintf(stderr, "  %s\n", line.c_str());
    }
  }
  const HealthReport& health = result.health;
  if (health.failed_ranks > 0) {
    std::fprintf(stderr,
                 "elastic recovery: %d rank failure(s) detected at step %d "
                 "(%.3fs); %d recovery round(s) adopted %d task(s) in %.3fs, "
                 "assignment epoch %d\n",
                 health.failed_ranks, health.detection_step,
                 health.detection_seconds, health.recoveries,
                 health.adopted_tasks, health.rebalance_seconds,
                 health.assignment_epoch);
  }
  if (opts.get_bool("health-report", false)) {
    util::Table health_table({"health check", "value"});
    health_table.add_row(
        {"non-finite values", std::to_string(health.nonfinite_values)});
    health_table.add_row(
        {"first non-finite step",
         health.first_nonfinite_step < 0
             ? "-"
             : std::to_string(health.first_nonfinite_step) + " (rank " +
                   std::to_string(health.first_nonfinite_rank) + ")"});
    health_table.add_row({"max interface residual",
                          util::Table::fmt_sci(health.max_interface_residual)});
    health_table.add_row(
        {"int8 saturated values", std::to_string(health.quant_saturations)});
    health_table.add_row(
        {"degraded borders", std::to_string(health.degraded_borders)});
    if (rollout_options.elastic.enabled) {
      health_table.add_row(
          {"rank failures", std::to_string(health.failed_ranks)});
      health_table.add_row(
          {"recovery rounds", std::to_string(health.recoveries)});
      health_table.add_row(
          {"adopted tasks", std::to_string(health.adopted_tasks)});
      health_table.add_row(
          {"failure detected at step",
           health.detection_step < 0 ? "-"
                                     : std::to_string(health.detection_step)});
      health_table.add_row({"detection seconds",
                            util::Table::fmt(health.detection_seconds, 3)});
      health_table.add_row({"rebalance seconds",
                            util::Table::fmt(health.rebalance_seconds, 3)});
      health_table.add_row(
          {"assignment epoch", std::to_string(health.assignment_epoch)});
      health_table.add_row(
          {"degraded during recovery",
           std::to_string(health.degraded_during_recovery)});
    }
    health_table.print("rollout health:");
  }
  int rc = 0;
  if (opts.has("metrics")) {
    telemetry::JsonlWriter writer(opts.get_string("metrics", ""));
    if (writer.ok()) {
      for (const auto& [step, rel_l2] : curve) {
        telemetry::JsonObject record;
        record.field("record", "rollout_step")
            .field("step", static_cast<std::int64_t>(step))
            .field("rel_l2", rel_l2);
        writer.write_line(record.str());
      }
      telemetry::JsonObject summary;
      summary.field("record", "rollout_summary")
          .field("steps", steps)
          .field("engine",
                 rollout_options.elastic.enabled ? "elastic" : "overlapped")
          .field("backend", result.backend)
          .field("record_every",
                 static_cast<std::int64_t>(rollout_options.record_every))
          .field("recorded_frames", static_cast<std::int64_t>(curve.size()))
          .field("comm_seconds", result.comm_seconds)
          .field("compute_seconds", result.compute_seconds)
          .field("steady_state_allocs",
                 static_cast<std::int64_t>(result.steady_state_allocs))
          .field("halo_bytes_sent", result.halo_bytes)
          .field("halo_bytes_received", result.halo_bytes_received)
          .field("bytes_sent_total", result.bytes_sent)
          .field("bytes_received_total", result.bytes_received)
          .field("degraded_borders",
                 static_cast<std::int64_t>(result.degraded_borders))
          .raw("degraded_detail", json_string_array(result.degraded_detail));
      telemetry::JsonObject health_json;
      health_json
          .field("nonfinite_values",
                 static_cast<std::int64_t>(health.nonfinite_values))
          .field("first_nonfinite_step",
                 static_cast<std::int64_t>(health.first_nonfinite_step))
          .field("first_nonfinite_rank",
                 static_cast<std::int64_t>(health.first_nonfinite_rank))
          .field("max_interface_residual", health.max_interface_residual)
          .field("quant_saturations",
                 static_cast<std::int64_t>(health.quant_saturations))
          .field("degraded_borders",
                 static_cast<std::int64_t>(health.degraded_borders));
      summary.raw("health", health_json.str());
      if (rollout_options.elastic.enabled) {
        telemetry::JsonObject recovery_json;
        recovery_json.field("recoveries", health.recoveries)
            .field("adopted_tasks", health.adopted_tasks)
            .field("failed_ranks", health.failed_ranks)
            .field("detection_step", health.detection_step)
            .field("detection_seconds", health.detection_seconds)
            .field("rebalance_seconds", health.rebalance_seconds)
            .field("assignment_epoch", health.assignment_epoch)
            .field("degraded_during_recovery",
                   health.degraded_during_recovery);
        summary.raw("recovery", recovery_json.str());
      }
      const std::string trace_path = opts.get_string("trace", "");
      if (!trace_path.empty()) summary.field("trace_file", trace_path);
      summary.raw("metrics", telemetry::Registry::global().metrics_json());
      writer.write_line(summary.str());
      if (!writer.close()) {
        std::fprintf(stderr, "error: failed writing --metrics file %s\n",
                     opts.get_string("metrics", "").c_str());
        rc = 3;
      }
    } else {
      std::fprintf(stderr, "error: cannot open --metrics file %s\n",
                   opts.get_string("metrics", "").c_str());
      rc = 3;
    }
  }
  if (opts.get_bool("render", false) && !result.frames.empty()) {
    std::printf("\n%s", util::render_comparison(
                            result.frames.back(), dataset.frame(start + steps),
                            0, "channel 0 after " + std::to_string(steps) +
                                   " steps")
                            .c_str());
  }
  // Non-finite values mean every frame after first_nonfinite_step is garbage;
  // that must not look like a successful rollout to scripts.
  if (health.nonfinite()) {
    std::fprintf(stderr,
                 "error: rollout produced %llu non-finite value(s), first at "
                 "step %d on rank %d (run with --health-report for details)\n",
                 static_cast<unsigned long long>(health.nonfinite_values),
                 health.first_nonfinite_step, health.first_nonfinite_rank);
    return 4;
  }
  return rc;
}

// Multi-session inference service over one trained network (docs/serving.md).
// Sessions run autoregressively inside the process: client threads step their
// sessions in a closed loop while the coalescing scheduler batches
// same-geometry requests into wide GEMMs. With --data the sessions replay
// recorded states — each session starts from a different dataset frame
// (replay-client mode); without it they start from seeded synthetic fields
// at --grid. Requires a "same"-padded model (train with --border=zero):
// sessions keep a fixed geometry across steps.
int cmd_serve(const util::Options& opts) {
  const auto checkpoint = load_ensemble(require(opts, "model"));
  if (checkpoint.border != BorderMode::kZeroPad) {
    std::fprintf(stderr,
                 "serve requires a zero-padded model (fixed session geometry);"
                 " this checkpoint was trained with --border=%s\n",
                 border_mode_name(checkpoint.border).c_str());
    return 2;
  }
  if (checkpoint.report.rank_outcomes.empty() ||
      checkpoint.report.rank_outcomes[0].parameters.empty()) {
    std::fprintf(stderr, "checkpoint carries no trained parameters\n");
    return 2;
  }
  const TrainConfig config = inference_config(checkpoint);
  const auto model =
      rebuild_model(config, checkpoint.report.rank_outcomes[0].parameters);
  const std::int64_t channels = config.network.channels.front();

  const int sessions = opts.get_int("sessions", 4);
  const int steps = opts.get_int("steps", 16);
  const double deadline_ms = opts.get_double("deadline-ms", 0.0);
  const std::string backend_name = opts.get_string("backend", "fp32");
  const backend::KernelBackend* bk = backend::by_name(backend_name);
  if (bk == nullptr) {
    std::fprintf(stderr, "unknown --backend=%s (fp32 or int8)\n",
                 backend_name.c_str());
    return 2;
  }

  // Session initial conditions: recorded frames (replay-client mode) or
  // seeded synthetic fields.
  std::vector<Tensor> initials;
  std::int64_t grid_h = 0, grid_w = 0;
  if (opts.has("data")) {
    const data::FrameDataset dataset(
        data::load_frames(opts.get_string("data", "")));
    if (dataset.channels() != channels) {
      std::fprintf(stderr,
                   "dataset has %lld channels, the model expects %lld\n",
                   static_cast<long long>(dataset.channels()),
                   static_cast<long long>(channels));
      return 2;
    }
    const auto start = static_cast<std::int64_t>(opts.get_int("start", 0));
    if (start + sessions > dataset.num_frames()) {
      std::fprintf(stderr, "replay window [%lld, %lld) exceeds the dataset\n",
                   static_cast<long long>(start),
                   static_cast<long long>(start + sessions));
      return 2;
    }
    grid_h = dataset.height();
    grid_w = dataset.width();
    for (int s = 0; s < sessions; ++s) {
      initials.push_back(dataset.frame(start + s));
    }
  } else {
    grid_h = grid_w = static_cast<std::int64_t>(opts.get_int("grid", 64));
    for (int s = 0; s < sessions; ++s) {
      Tensor ic({channels, grid_h, grid_w});
      util::Rng rng(100 + static_cast<std::uint64_t>(s));
      rng.fill_uniform(ic.values(), 0.5f, 1.5f);
      initials.push_back(std::move(ic));
    }
  }

  serve::ServerOptions server_options;
  server_options.backend = bk;
  server_options.max_batch = opts.get_int("max-batch", 8);
  server_options.queue_depth = opts.get_int("queue-depth", 64);
  server_options.max_sessions = sessions;
  server_options.coalesce = !opts.get_bool("serial", false);
  server_options.coalesce_window_ms = opts.get_double("window-ms", 0.0);
  serve::SurrogateServer server(*model, channels, grid_h, grid_w,
                                server_options);
  if (server.needs_calibration()) server.calibrate(initials[0].data());

  std::vector<std::int64_t> ids(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    ids[static_cast<std::size_t>(s)] =
        server.open_session(initials[static_cast<std::size_t>(s)].data());
  }
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(sessions));
  std::atomic<std::uint64_t> deadline_misses{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int s = 0; s < sessions; ++s) {
    clients.emplace_back([&, s] {
      for (int t = 0; t < steps; ++t) {
        const serve::StepResult r =
            server.step(ids[static_cast<std::size_t>(s)], deadline_ms);
        if (r.ok()) {
          latencies[static_cast<std::size_t>(s)].push_back(r.latency_seconds);
        } else if (r.reject == serve::Reject::kDeadline) {
          deadline_misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<double> all;
  for (const auto& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  const parpde::bench::LatencySummary lat =
      parpde::bench::summarize_latencies(all);
  const serve::ServerStats stats = server.stats();
  util::Table table({"figure", "value"});
  table.add_row({"sessions", std::to_string(sessions)});
  table.add_row({"steps/session", std::to_string(steps)});
  table.add_row({"backend", backend_name});
  table.add_row({"dispatch", server_options.coalesce ? "coalesced" : "serial"});
  table.add_row({"requests", std::to_string(stats.requests)});
  table.add_row({"rejected", std::to_string(stats.rejected)});
  table.add_row({"deadline misses", std::to_string(deadline_misses.load())});
  table.add_row(
      {"throughput [req/s]",
       util::Table::fmt(static_cast<double>(all.size()) / wall, 1)});
  table.add_row({"p50 latency [ms]", util::Table::fmt(lat.p50 * 1e3, 3)});
  table.add_row({"p99 latency [ms]", util::Table::fmt(lat.p99 * 1e3, 3)});
  table.add_row(
      {"mean batch",
       util::Table::fmt(stats.batches > 0
                            ? static_cast<double>(stats.requests -
                                                  stats.rejected) /
                                  static_cast<double>(stats.batches)
                            : 0.0,
                        2)});
  table.add_row({"growth events", std::to_string(server.growth_events())});
  table.print("serve summary (" +
              std::string(opts.has("data") ? "replay" : "synthetic") +
              " sessions):");
  std::printf("batch occupancy:");
  for (std::size_t b = 1; b < stats.occupancy.size(); ++b) {
    std::printf(" %zux%llu", b,
                static_cast<unsigned long long>(stats.occupancy[b]));
  }
  std::printf("\n");
  return 0;
}

int cmd_info(const util::Options& opts) {
  if (opts.has("model")) {
    const auto checkpoint = load_ensemble(opts.get_string("model", ""));
    std::printf("ensemble checkpoint:\n  ranks: %d (%d x %d)\n  border: %s\n",
                checkpoint.report.ranks, checkpoint.report.dims.px,
                checkpoint.report.dims.py,
                border_mode_name(checkpoint.border).c_str());
    std::printf("  network channels:");
    for (const auto c : checkpoint.network.channels) {
      std::printf(" %lld", static_cast<long long>(c));
    }
    std::printf(" | kernel %lldx%lld\n",
                static_cast<long long>(checkpoint.network.kernel),
                static_cast<long long>(checkpoint.network.kernel));
    std::int64_t params = 0;
    for (const auto& o : checkpoint.report.rank_outcomes) {
      for (const auto& t : o.parameters) params += t.size();
    }
    std::printf("  total parameters: %lld\n", static_cast<long long>(params));
    return 0;
  }
  if (opts.has("data")) {
    const data::FrameDataset dataset(
        data::load_frames(opts.get_string("data", "")));
    std::printf("frame dataset: %lld frames of [%lld, %lld, %lld]\n",
                static_cast<long long>(dataset.num_frames()),
                static_cast<long long>(dataset.channels()),
                static_cast<long long>(dataset.height()),
                static_cast<long long>(dataset.width()));
    return 0;
  }
  return usage();
}

// Every subcommand with the options it reads. A key outside its list (a
// typo, or a retired flag) is rejected with exit 2 instead of being silently
// ignored; --trace, --metrics and --log-level are accepted by every command.
struct Command {
  const char* name;
  int (*run)(const util::Options&);
  std::vector<std::string> options;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"simulate", cmd_simulate, {"out", "pde", "grid", "frames", "steps-per-frame"}},
      {"train",
       cmd_train,
       {"data", "out", "ranks", "tasks-per-rank", "checkpoint-dir",
        "checkpoint-every", "resume", "border", "loss", "optimizer", "lr", "epochs",
        "batch-size", "train-fraction", "threads"}},
      {"eval", cmd_eval, {"data", "model", "train-fraction"}},
      {"rollout",
       cmd_rollout,
       {"data", "model", "steps", "start", "halo-timeout-ms", "halo-retries",
        "record-every", "elastic", "tasks-per-rank", "no-recover", "lease-ms",
        "missed-leases", "state-dir", "state-every", "backend", "health-report",
        "render"}},
      {"serve",
       cmd_serve,
       {"model", "sessions", "steps", "deadline-ms", "backend", "data", "start",
        "grid", "max-batch", "queue-depth", "serial", "window-ms"}},
      {"info", cmd_info, {"model", "data"}},
  };
  return table;
}

bool accepts(const Command& command, const std::string& key) {
  if (key == "trace" || key == "metrics" || key == "log-level") return true;
  return std::find(command.options.begin(), command.options.end(), key) !=
         command.options.end();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string name = argv[1];
  const util::Options opts(argc - 1, argv + 1);
  const Command* command = nullptr;
  for (const Command& c : commands()) {
    if (name == c.name) command = &c;
  }
  if (command == nullptr) return usage();
  for (const std::string& key : opts.keys()) {
    if (!accepts(*command, key)) {
      std::fprintf(stderr, "parpde_cli %s: unknown option --%s\n",
                   command->name, key.c_str());
      return 2;
    }
  }

  // --log-level beats the PARPDE_LOG_LEVEL environment fallback.
  std::string level_name = opts.get_string("log-level", "");
  if (level_name.empty()) {
    if (const char* env = std::getenv("PARPDE_LOG_LEVEL")) level_name = env;
  }
  if (!level_name.empty()) {
    util::LogLevel level = util::LogLevel::kInfo;
    if (!util::parse_log_level(level_name, &level)) {
      std::fprintf(stderr, "unknown log level '%s' (debug|info|warn|error)\n",
                   level_name.c_str());
      return 2;
    }
    util::set_log_level(level);
  }

  // PARPDE_FAULT installs a seeded fault plan before any command runs, so an
  // injected drop/kill covers the whole pipeline (docs/robustness.md).
  try {
    mpi::fault::install_from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad PARPDE_FAULT: %s\n", e.what());
    return 2;
  }

  const std::string trace_path = opts.get_string("trace", "");
  if (!trace_path.empty()) {
    // Fail fast when the trace destination is unwritable: finding out after
    // the run would silently throw the whole trace away.
    std::FILE* trace_file = std::fopen(trace_path.c_str(), "w");
    if (trace_file == nullptr) {
      std::fprintf(stderr, "error: cannot open --trace file %s\n",
                   trace_path.c_str());
      return 3;
    }
    std::fclose(trace_file);
    telemetry::set_enabled(true);
  }

  int rc;
  try {
    rc = command->run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (!trace_path.empty()) {
    telemetry::set_enabled(false);
    if (telemetry::write_chrome_trace(trace_path)) {
      std::printf("wrote %zu trace events to %s (open in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  telemetry::trace_event_count(), trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write --trace file %s\n",
                   trace_path.c_str());
      if (rc == 0) rc = 3;
    }
  }
  return rc;
}
