// Causal cross-rank tracing: a traced 4-rank rollout must emit a
// well-formed Chrome trace in which every halo send opens a flow that is
// closed by exactly one matched receive on the neighbouring rank's lane, no
// later than that receive on the one shared clock, and the critical-path
// child spans of each rollout.step account for the step's wall time — with
// the elastic runtime on as well as off. Tracing itself sends no messages, so
// a seeded fault plan hits the same message with tracing on as off.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/inference.hpp"
#include "core/model.hpp"
#include "helpers.hpp"
#include "minimpi/environment.hpp"
#include "minimpi/fault.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"

namespace parpde::core {
namespace {

constexpr int kSteps = 5;
constexpr int kRanks = 4;  // 2x2: one horizontal + one vertical neighbour each
constexpr std::int64_t kGrid = 32;

TrainConfig small_config() {
  TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;  // receptive halo 2
  cfg.border = BorderMode::kHaloPad;
  return cfg;
}

ParallelTrainReport shared_weight_report(const std::vector<Tensor>& params,
                                         int ranks) {
  ParallelTrainReport report;
  report.ranks = ranks;
  report.dims = mpi::dims_create(ranks);
  const domain::Partition part(kGrid, kGrid, report.dims.px, report.dims.py);
  report.rank_outcomes.resize(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto& outcome = report.rank_outcomes[static_cast<std::size_t>(r)];
    outcome.rank = r;
    outcome.block = part.block_of_rank(r);
    outcome.parameters = params;
  }
  return report;
}

struct Span {
  std::string name;
  std::int64_t ts = 0;
  std::int64_t dur = 0;
  int pid = 0;
};

struct Flow {
  char ph = 's';
  std::string name;
  std::uint64_t id = 0;
  std::int64_t ts = 0;
  int pid = 0;
};

struct ParsedTrace {
  std::string text;
  std::vector<Span> spans;
  std::vector<Flow> flows;
};

// A rollout's model, per-rank report and initial frame.
struct RolloutSetup {
  TrainConfig cfg = small_config();
  ParallelTrainReport report;
  Tensor initial{{4, kGrid, kGrid}};

  explicit RolloutSetup(int ranks) {
    util::Rng rng(cfg.seed);
    const auto model = build_model(cfg.network, cfg.border, rng);
    auto params = export_parameters(*model);
    for (auto& t : params) {
      // Damp weights so the autoregressive rollout stays finite.
      if (t.ndim() != 1) {
        for (std::int64_t i = 0; i < t.size(); ++i) t[i] *= 0.5f;
      }
    }
    report = shared_weight_report(params, ranks);
    util::Rng data_rng(1234);
    data_rng.fill_uniform(initial.values(), 0.5f, 1.5f);
  }
};

parpde::testing::RecordedRollout run_rollout(const RolloutSetup& setup,
                                             const RolloutOptions& options) {
  return parpde::testing::recorded_rollout(setup.cfg, setup.report,
                                           setup.initial, kSteps, options);
}

// Runs one traced 2x2 rollout and parses the written trace. The writer's key
// order is fixed (telemetry.cpp), so a regex scan is an honest parser here.
ParsedTrace run_traced_rollout(const RolloutOptions& options) {
  telemetry::set_enabled(true);
  telemetry::clear_trace();
  static const RolloutSetup setup(kRanks);
  const auto run = run_rollout(setup, options);
  telemetry::set_enabled(false);
  EXPECT_EQ(run.frames.size(), static_cast<std::size_t>(kSteps));

  const std::string path = ::testing::TempDir() + "parpde_test_trace.json";
  EXPECT_TRUE(telemetry::write_chrome_trace(path));

  ParsedTrace parsed;
  std::ostringstream buffer;
  buffer << std::ifstream(path).rdbuf();
  parsed.text = buffer.str();
  std::remove(path.c_str());

  const std::regex span_re(
      "\\{\"ph\":\"X\",\"name\":\"([^\"]*)\",\"cat\":\"[^\"]*\","
      "\"ts\":(-?\\d+),\"dur\":(\\d+),\"pid\":(-?\\d+),\"tid\":\\d+\\}");
  const std::regex flow_re(
      "\\{\"ph\":\"(s|f)\",(?:\"bp\":\"e\",)?\"name\":\"([^\"]*)\","
      "\"cat\":\"flow\",\"id\":(\\d+),\"ts\":(-?\\d+),\"pid\":(-?\\d+),"
      "\"tid\":\\d+\\}");
  for (auto it = std::sregex_iterator(parsed.text.begin(), parsed.text.end(),
                                      span_re);
       it != std::sregex_iterator(); ++it) {
    parsed.spans.push_back(Span{(*it)[1], std::stoll((*it)[2]),
                                std::stoll((*it)[3]), std::stoi((*it)[4])});
  }
  for (auto it = std::sregex_iterator(parsed.text.begin(), parsed.text.end(),
                                      flow_re);
       it != std::sregex_iterator(); ++it) {
    parsed.flows.push_back(Flow{*(*it)[1].first, (*it)[2],
                                std::stoull((*it)[3]), std::stoll((*it)[4]),
                                std::stoi((*it)[5])});
  }
  return parsed;
}

const ParsedTrace& traced_rollout() {
  static const ParsedTrace trace = run_traced_rollout(RolloutOptions{});
  return trace;
}

// The same rollout through the elastic runtime (one task per rank).
const ParsedTrace& traced_elastic_rollout() {
  static const ParsedTrace trace = [] {
    RolloutOptions options;
    options.elastic.enabled = true;
    return run_traced_rollout(options);
  }();
  return trace;
}

TEST(TraceTest, TraceJsonIsBalanced) {
  const auto& trace = traced_rollout();
  ASSERT_FALSE(trace.text.empty());
  EXPECT_EQ(trace.text.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  // Structural validation: braces/brackets balance outside string literals.
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char c : trace.text) {
    if (escaped) {
      escaped = false;
    } else if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string) {
      braces += c == '{' ? 1 : c == '}' ? -1 : 0;
      brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
      ASSERT_GE(braces, 0);
      ASSERT_GE(brackets, 0);
    }
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceTest, EveryHaloSendHasExactlyOneMatchedReceive) {
  const auto& trace = traced_rollout();
  std::map<std::uint64_t, std::pair<int, int>> endpoints;  // id -> (#s, #f)
  int halo_sends = 0;
  for (const auto& f : trace.flows) {
    auto& e = endpoints[f.id];
    (f.ph == 's' ? e.first : e.second)++;
    if (f.ph == 's' && f.name == "domain.halo") ++halo_sends;
  }
  // 2x2 partition: every rank has exactly one E/W and one S/N neighbour, so
  // each step moves 8 halo strips in total.
  EXPECT_EQ(halo_sends, kSteps * 8);
  for (const auto& [id, counts] : endpoints) {
    EXPECT_EQ(counts.first, 1) << "flow " << id << " has duplicate starts";
    EXPECT_EQ(counts.second, 1)
        << "flow " << id << " is unterminated or duplicated";
  }
}

TEST(TraceTest, EveryFlowFinishesAtOrAfterItsStart) {
  // Both ends of a flow are stamped on the one process-wide now_us() clock:
  // the start before the mailbox push, the finish after the pop.
  for (const ParsedTrace* run : {&traced_rollout(), &traced_elastic_rollout()}) {
    SCOPED_TRACE(run == &traced_rollout() ? "classic" : "elastic");
    std::map<std::uint64_t, std::pair<const Flow*, const Flow*>> endpoints;
    for (const auto& f : run->flows) {
      auto& e = endpoints[f.id];
      (f.ph == 's' ? e.first : e.second) = &f;
    }
    int matched = 0;
    for (const auto& [id, ends] : endpoints) {
      if (ends.first == nullptr || ends.second == nullptr) continue;
      ++matched;
      EXPECT_GE(ends.second->ts, ends.first->ts)
          << "flow " << id << " (" << ends.first->name
          << ") finishes before its start";
    }
    EXPECT_GE(matched, kSteps * 8);
  }
}

// Sets tracing for the scope; every way out of it turns tracing off again.
struct TracingScope {
  explicit TracingScope(bool on) {
    telemetry::clear_trace();
    telemetry::set_enabled(on);
  }
  ~TracingScope() {
    telemetry::set_enabled(false);
    telemetry::clear_trace();
  }
  TracingScope(const TracingScope&) = delete;
  TracingScope& operator=(const TracingScope&) = delete;
};

TEST(TraceTest, TracingDoesNotChangeASeededFaultsOutcome) {
  // The plan drops the first message rank 1 sends. Tracing must send nothing
  // of its own, so that message is the same halo strip with tracing on as
  // off, and the same borders degrade. Two ranks share one border: in a 2x2
  // layout a third rank waits on the stalled rank 0 with the same patience,
  // so whether it degrades too depends on which of the two began waiting
  // first, not on tracing.
  const RolloutSetup pair(2);
  RolloutOptions options;
  options.halo.recv_timeout = std::chrono::milliseconds(20);
  options.halo.max_retries = 2;
  int degraded[2] = {-1, -1};
  for (const bool traced : {false, true}) {
    const parpde::testing::PlanGuard fault(
        mpi::fault::FaultPlan::parse("seed=7;drop:src=1,max=1"));
    const TracingScope tracing(traced);
    degraded[traced ? 1 : 0] =
        run_rollout(pair, options).result.degraded_borders;
  }
  EXPECT_GT(degraded[0], 0);
  EXPECT_EQ(degraded[1], degraded[0]);

  // A traced Environment::run hands the body communicators that have sent
  // nothing yet.
  const TracingScope tracing(true);
  std::vector<std::uint64_t> sent(kRanks, ~std::uint64_t{0});
  mpi::Environment(kRanks).run([&sent](mpi::Communicator& comm) {
    sent[static_cast<std::size_t>(comm.rank())] = comm.bytes_sent();
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(sent[static_cast<std::size_t>(r)], 0u) << "rank " << r;
  }
}

TEST(TraceTest, CriticalPathChildrenAccountForStepTime) {
  for (const ParsedTrace* run : {&traced_rollout(), &traced_elastic_rollout()}) {
    SCOPED_TRACE(run == &traced_rollout() ? "classic" : "elastic");
    const auto& trace = *run;
    int steps_seen = 0;
    for (const auto& step : trace.spans) {
      if (step.name != "rollout.step" || step.pid != 0) continue;
      ++steps_seen;
      std::int64_t known = 0;
      bool saw_finish = false;
      for (const auto& child : trace.spans) {
        if (child.pid != step.pid || &child == &step) continue;
        if (child.ts < step.ts || child.ts + child.dur > step.ts + step.dur) {
          continue;  // not inside this step
        }
        if (child.name == "rollout.forward" ||
            child.name == "halo.begin" || child.name == "halo.finish" ||
            child.name == "rollout.gather") {
          known += child.dur;  // halo.stall is nested inside halo.finish
          saw_finish = saw_finish || child.name == "halo.finish";
        }
      }
      EXPECT_TRUE(saw_finish) << "step at ts " << step.ts
                              << " has no halo.finish span";
      // The named children must sum to the step's wall time: no overshoot
      // beyond rounding, and the unattributed glue (health scan, bookkeeping)
      // must stay a sliver. Generous slack keeps sanitizer runs green.
      EXPECT_LE(known, step.dur + 50) << "children overshoot step at " << step.ts;
      EXPECT_GE(known, step.dur - (step.dur / 5 + 500))
          << "step at ts " << step.ts << " is mostly unattributed ("
          << known << " of " << step.dur << " us)";
    }
    EXPECT_EQ(steps_seen, kSteps);
  }
}

}  // namespace
}  // namespace parpde::core
