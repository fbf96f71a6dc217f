// Causal cross-rank tracing: a traced 4-rank rollout must emit a
// well-formed Chrome trace in which every halo send opens a flow that is
// closed by exactly one matched receive on the neighbouring rank's lane, the
// clock-sync metadata is present for every rank, and the critical-path child
// spans of each rollout.step account for the step's wall time — with the
// elastic runtime on as well as off.

#include <gtest/gtest.h>

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

ParallelTrainReport shared_weight_report(const std::vector<Tensor>& params) {
  ParallelTrainReport report;
  report.ranks = kRanks;
  report.dims = mpi::dims_create(kRanks);
  const domain::Partition part(kGrid, kGrid, report.dims.px, report.dims.py);
  report.rank_outcomes.resize(kRanks);
  for (int r = 0; r < kRanks; ++r) {
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
  int pid = 0;
};

struct ParsedTrace {
  std::string text;
  std::vector<Span> spans;
  std::vector<Flow> flows;
};

// Runs one traced 2x2 rollout and parses the written trace. The writer's key
// order is fixed (telemetry.cpp), so a regex scan is an honest parser here.
ParsedTrace run_traced_rollout(const RolloutOptions& options) {
  TrainConfig cfg = small_config();
  util::Rng rng(cfg.seed);
  const auto model = build_model(cfg.network, cfg.border, rng);
  auto params = export_parameters(*model);
  for (auto& t : params) {
    // Damp weights so the autoregressive rollout stays finite.
    if (t.ndim() != 1) {
      for (std::int64_t i = 0; i < t.size(); ++i) t[i] *= 0.5f;
    }
  }
  const auto report = shared_weight_report(params);
  Tensor initial({4, kGrid, kGrid});
  util::Rng data_rng(1234);
  data_rng.fill_uniform(initial.values(), 0.5f, 1.5f);

  telemetry::set_enabled(true);
  telemetry::clear_trace();
  const auto run = parpde::testing::recorded_rollout(cfg, report, initial,
                                                    kSteps, options);
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
      "\"cat\":\"flow\",\"id\":(\\d+),\"ts\":-?\\d+,\"pid\":(-?\\d+),"
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
                                std::stoull((*it)[3]), std::stoi((*it)[4])});
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

TEST(TraceTest, ClockSyncMetadataOnEveryRankLane) {
  const auto& trace = traced_rollout();
  for (int rank = 0; rank < kRanks; ++rank) {
    const std::string needle = "{\"ph\":\"M\",\"name\":\"clock_sync\",\"pid\":" +
                               std::to_string(rank) +
                               ",\"tid\":0,\"args\":{\"offset_us\":";
    EXPECT_NE(trace.text.find(needle), std::string::npos)
        << "no clock_sync metadata for rank " << rank;
    EXPECT_NE(trace.text.find("\"applied\":true"), std::string::npos);
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
