// Fault-injection substrate and the robustness plumbing it feeds: FaultPlan
// parsing, deterministic drop/dup/corrupt/delay decisions, bounded receives
// (Communicator::recv_for and Mailbox::pop_matching with a timeout),
// run_collect's failed-rank reporting, CRC framing of the serialized formats,
// and the crash-consistent training checkpoint files. The end-to-end soaks (kill ->
// resume bit-identity, degraded rollout) live in test_chaos.cpp.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/model.hpp"
#include "core/train_checkpoint.hpp"
#include "core/trainer.hpp"
#include "helpers.hpp"
#include "minimpi/environment.hpp"
#include "minimpi/fault.hpp"
#include "nn/serialize.hpp"
#include "util/crc32.hpp"
#include "util/framed_file.hpp"
#include "util/telemetry.hpp"

namespace parpde {
namespace {

using namespace std::chrono_literals;
using parpde::testing::PlanGuard;

std::string unique_dir(const std::string& stem) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   stem;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// --- FaultPlan grammar -------------------------------------------------------

TEST(FaultPlan, ParsesTheFullGrammar) {
  const auto plan = mpi::fault::FaultPlan::parse(
      "seed=7;drop:tag=4096-4099,src=1,dst=0,prob=0.5,max=3;"
      "delay:tag=10,ms=50;dup:tag=11;corrupt:tag=12,prob=0.25;"
      "kill:rank=2,epoch=1");
  EXPECT_EQ(plan.seed(), 7u);
  ASSERT_EQ(plan.rules().size(), 4u);
  const auto& drop = plan.rules()[0];
  EXPECT_EQ(drop.action, mpi::fault::Action::kDrop);
  EXPECT_EQ(drop.tag_lo, 4096);
  EXPECT_EQ(drop.tag_hi, 4099);
  EXPECT_EQ(drop.source, 1);
  EXPECT_EQ(drop.dest, 0);
  EXPECT_DOUBLE_EQ(drop.probability, 0.5);
  EXPECT_EQ(drop.max_hits, 3);
  EXPECT_EQ(plan.rules()[1].action, mpi::fault::Action::kDelay);
  EXPECT_EQ(plan.rules()[1].delay_ms, 50);
  EXPECT_EQ(plan.rules()[2].action, mpi::fault::Action::kDuplicate);
  EXPECT_EQ(plan.rules()[3].action, mpi::fault::Action::kCorrupt);
  EXPECT_EQ(plan.kill().rank, 2);
  EXPECT_EQ(plan.kill().at_epoch, 1);
}

TEST(FaultPlan, ParsesSendCountKill) {
  const auto plan = mpi::fault::FaultPlan::parse("kill:rank=1,sends=10");
  EXPECT_EQ(plan.kill().rank, 1);
  EXPECT_EQ(plan.kill().after_sends, 10u);
  EXPECT_EQ(plan.kill().at_epoch, -1);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  using mpi::fault::FaultPlan;
  EXPECT_THROW(FaultPlan::parse("bogus"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("explode:tag=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop:prob=2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop:tag=9-2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop:tag=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("delay:tag=5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill:rank=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill:epoch=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop:tag=1,wat=2"), std::invalid_argument);
}

TEST(FaultPlan, RuleSelectorsMatchAsDocumented) {
  mpi::fault::Rule rule;
  rule.tag_lo = 10;
  rule.tag_hi = 12;
  rule.source = 1;
  EXPECT_TRUE(rule.matches(1, 0, 10));
  EXPECT_TRUE(rule.matches(1, 3, 12));
  EXPECT_FALSE(rule.matches(0, 0, 10));  // wrong source
  EXPECT_FALSE(rule.matches(1, 0, 13));  // tag out of range
}

// --- message faults through the Communicator ---------------------------------

TEST(FaultInjection, DisabledByDefault) {
  EXPECT_FALSE(mpi::fault::enabled());
  // Hooks must be no-ops without a plan.
  const auto decision = mpi::fault::on_send(0, 1, 42);
  EXPECT_FALSE(decision.drop);
  EXPECT_FALSE(decision.duplicate);
  EXPECT_FALSE(decision.corrupt);
  EXPECT_NO_THROW(mpi::fault::check_kill_epoch(0, 0));
  EXPECT_NO_THROW(mpi::fault::on_send_complete(0));
}

TEST(FaultInjection, DropRuleLosesExactlyMaxHitsMessages) {
  mpi::fault::Rule rule;
  rule.action = mpi::fault::Action::kDrop;
  rule.tag_lo = rule.tag_hi = 7777;
  rule.max_hits = 2;  // prob=1: the first two sends vanish
  PlanGuard guard(mpi::fault::FaultPlan(3).add_rule(rule));

  int delivered = 0;
  mpi::Environment env(2);
  env.run([&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      for (float v = 0; v < 5; ++v) {
        comm.send_value<float>(1, 7777, v);
      }
    } else {
      std::vector<float> msg;
      while (comm.recv_for<float>(0, 7777, 500ms, &msg) ==
             mpi::RecvStatus::kOk) {
        ++delivered;
        // The drop ate the first two values; order is preserved beyond that.
        EXPECT_FLOAT_EQ(msg.at(0), static_cast<float>(delivered + 1));
      }
    }
  });
  EXPECT_EQ(delivered, 3);
}

TEST(FaultInjection, ProbabilisticDropIsDeterministicAcrossRuns) {
  mpi::fault::Rule rule;
  rule.action = mpi::fault::Action::kDrop;
  rule.tag_lo = rule.tag_hi = 7778;
  rule.probability = 0.5;

  auto run_once = [&rule]() {
    PlanGuard guard(mpi::fault::FaultPlan(42).add_rule(rule));
    std::vector<float> arrived;
    mpi::Environment env(2);
    env.run([&](mpi::Communicator& comm) {
      if (comm.rank() == 0) {
        for (float v = 0; v < 32; ++v) comm.send_value<float>(1, 7778, v);
      } else {
        std::vector<float> msg;
        while (comm.recv_for<float>(0, 7778, 500ms, &msg) ==
               mpi::RecvStatus::kOk) {
          arrived.push_back(msg.at(0));
        }
      }
    });
    return arrived;
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_GT(first.size(), 0u);
  EXPECT_LT(first.size(), 32u);
  EXPECT_EQ(first, second);  // same seed, same channel => same casualties
}

TEST(FaultInjection, DuplicateRuleDeliversTwice) {
  mpi::fault::Rule rule;
  rule.action = mpi::fault::Action::kDuplicate;
  rule.tag_lo = rule.tag_hi = 7779;
  rule.max_hits = 1;
  PlanGuard guard(mpi::fault::FaultPlan(5).add_rule(rule));

  int copies = 0;
  mpi::Environment env(2);
  env.run([&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<float>(1, 7779, 3.0f);
    } else {
      std::vector<float> msg;
      while (comm.recv_for<float>(0, 7779, 500ms, &msg) ==
             mpi::RecvStatus::kOk) {
        EXPECT_FLOAT_EQ(msg.at(0), 3.0f);
        ++copies;
      }
    }
  });
  EXPECT_EQ(copies, 2);
}

TEST(FaultInjection, CorruptionIsDetectedByTheCrcEnvelope) {
  mpi::fault::Rule rule;
  rule.action = mpi::fault::Action::kCorrupt;
  rule.tag_lo = rule.tag_hi = 7780;
  rule.max_hits = 1;
  PlanGuard guard(mpi::fault::FaultPlan(9).add_rule(rule));

  const auto corrupt_before = telemetry::counter("comm.corrupt_detected").value();
  mpi::RecvStatus first = mpi::RecvStatus::kOk;
  mpi::RecvStatus second = mpi::RecvStatus::kOk;
  mpi::Environment env(2);
  env.run([&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<float>(1, 7780, 1.0f);   // corrupted on the wire
      comm.send_value<float>(1, 7780, 2.0f);   // max_hits reached: clean
    } else {
      std::vector<float> msg;
      first = comm.recv_for<float>(0, 7780, 500ms, &msg);
      second = comm.recv_for<float>(0, 7780, 500ms, &msg);
      if (second == mpi::RecvStatus::kOk) {
        EXPECT_FLOAT_EQ(msg.at(0), 2.0f);
      }
    }
  });
  // The corrupt message is consumed and reported, not delivered; the next
  // clean message still comes through (non-overtaking order preserved).
  EXPECT_EQ(first, mpi::RecvStatus::kCorrupt);
  EXPECT_EQ(second, mpi::RecvStatus::kOk);
  EXPECT_GT(telemetry::counter("comm.corrupt_detected").value(), corrupt_before);
}

TEST(FaultInjection, BlockingRecvThrowsOnCorruption) {
  mpi::fault::Rule rule;
  rule.action = mpi::fault::Action::kCorrupt;
  rule.tag_lo = rule.tag_hi = 7781;
  rule.max_hits = 1;
  PlanGuard guard(mpi::fault::FaultPlan(11).add_rule(rule));

  std::string error;
  mpi::Environment env(2);
  env.run([&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<float>(1, 7781, 1.0f);
    } else {
      try {
        (void)comm.recv<float>(0, 7781);
      } catch (const std::runtime_error& e) {
        error = e.what();
      }
    }
  });
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(FaultInjection, DelayRuleStallsTheSender) {
  mpi::fault::Rule rule;
  rule.action = mpi::fault::Action::kDelay;
  rule.tag_lo = rule.tag_hi = 7782;
  rule.delay_ms = 60;
  rule.max_hits = 1;
  PlanGuard guard(mpi::fault::FaultPlan(2).add_rule(rule));

  std::chrono::steady_clock::duration send_time{};
  mpi::Environment env(2);
  env.run([&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      const auto t0 = std::chrono::steady_clock::now();
      comm.send_value<float>(1, 7782, 1.0f);
      send_time = std::chrono::steady_clock::now() - t0;
    } else {
      std::vector<float> msg;
      EXPECT_EQ(comm.recv_for<float>(0, 7782, 2000ms, &msg),
                mpi::RecvStatus::kOk);
    }
  });
  EXPECT_GE(send_time, 55ms);
}

// --- bounded receives --------------------------------------------------------

TEST(BoundedRecv, TimesOutWithoutConsumingAndThenDelivers) {
  mpi::Environment env(2);
  env.run([&](mpi::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<float>(1, 6001, 4.0f);  // tag 6000 never sent
    } else {
      std::vector<float> msg;
      const auto t0 = std::chrono::steady_clock::now();
      EXPECT_EQ(comm.recv_for<float>(0, 6000, 40ms, &msg),
                mpi::RecvStatus::kTimeout);
      EXPECT_GE(std::chrono::steady_clock::now() - t0, 35ms);
      EXPECT_EQ(comm.recv_for<float>(0, 6001, 2000ms, &msg),
                mpi::RecvStatus::kOk);
      EXPECT_FLOAT_EQ(msg.at(0), 4.0f);
    }
  });
}

TEST(Mailbox, PopMatchingForExpiresWithoutConsuming) {
  mpi::Mailbox box;
  mpi::Message out;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.pop_matching(0, 1, &out, 30ms));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 25ms);

  mpi::Message msg;
  msg.source = 0;
  msg.tag = 2;
  msg.payload.resize(4);
  box.push(std::move(msg));
  // A non-matching tag still expires — and leaves the queued message alone.
  EXPECT_FALSE(box.pop_matching(0, 1, &out, 10ms));
  EXPECT_EQ(box.snapshot().size(), 1u);
  EXPECT_TRUE(box.pop_matching(0, 2, &out, 10ms));
  EXPECT_EQ(out.tag, 2);
  EXPECT_EQ(box.snapshot().size(), 0u);
}

TEST(Mailbox, PopMatchingForWakesOnLateArrival) {
  mpi::Mailbox box;
  std::thread producer([&box] {
    std::this_thread::sleep_for(20ms);
    mpi::Message msg;
    msg.source = 3;
    msg.tag = 9;
    box.push(std::move(msg));
  });
  mpi::Message out;
  EXPECT_TRUE(box.pop_matching(mpi::kAnySource, 9, &out, 2000ms));
  EXPECT_EQ(out.source, 3);
  producer.join();
}

// --- rank death and run_collect ----------------------------------------------

TEST(RunCollect, ReportsKilledRankWhileSurvivorsFinish) {
  mpi::fault::KillSpec kill;
  kill.rank = 1;
  kill.after_sends = 2;
  PlanGuard guard(mpi::fault::FaultPlan(1).set_kill(kill));

  const auto failures_before = telemetry::counter("mpi.rank_failures").value();
  bool rank0_finished = false;
  mpi::Environment env(2);
  const auto outcome = env.run_collect([&](mpi::Communicator& comm) {
    for (float v = 0; v < 4; ++v) {
      comm.send_value<float>(1 - comm.rank(), 6100, v);  // rank 1 dies at v=1
    }
    if (comm.rank() == 0) rank0_finished = true;
  });
  ASSERT_EQ(outcome.ranks.size(), 2u);
  EXPECT_FALSE(outcome.ranks[0].failed);
  EXPECT_TRUE(outcome.ranks[1].failed);
  EXPECT_NE(outcome.ranks[1].error.find("send quota"), std::string::npos);
  EXPECT_EQ(outcome.failed_ranks(), std::vector<int>{1});
  EXPECT_FALSE(outcome.all_ok());
  EXPECT_TRUE(rank0_finished);
  EXPECT_GT(telemetry::counter("mpi.rank_failures").value(), failures_before);
}

TEST(RunCollect, AllOkWhenNothingFails) {
  mpi::Environment env(2);
  const auto outcome = env.run_collect([](mpi::Communicator&) {});
  EXPECT_TRUE(outcome.all_ok());
  EXPECT_TRUE(outcome.failed_ranks().empty());
}

TEST(KillEpoch, FiresExactlyOnceForTheTargetRank) {
  mpi::fault::KillSpec kill;
  kill.rank = 3;
  kill.at_epoch = 2;
  PlanGuard guard(mpi::fault::FaultPlan(1).set_kill(kill));

  EXPECT_NO_THROW(mpi::fault::check_kill_epoch(3, 0));
  EXPECT_NO_THROW(mpi::fault::check_kill_epoch(2, 2));  // other rank
  EXPECT_THROW(mpi::fault::check_kill_epoch(3, 2), mpi::fault::RankFailure);
  // The directive is spent: the retrained rank passes the same epoch.
  EXPECT_NO_THROW(mpi::fault::check_kill_epoch(3, 2));
}

// --- CRC-32 and the framed serialization formats -----------------------------

TEST(Crc32, MatchesKnownVectorAndChains) {
  // IEEE 802.3 check value for "123456789".
  const char* text = "123456789";
  EXPECT_EQ(util::crc32(text, 9), 0xCBF43926u);
  // Chained computation must equal the one-shot digest.
  const auto head = util::crc32(text, 4);
  EXPECT_EQ(util::crc32(text + 4, 5, head), 0xCBF43926u);
}

TEST(NnSerialize, RoundTripsAndRejectsCorruptionAndTruncation) {
  core::NetworkConfig net;
  net.channels = {2, 4, 2};
  util::Rng rng(7);
  auto model = core::build_model(net, core::BorderMode::kZeroPad, rng);
  std::ostringstream out(std::ios::binary);
  nn::save_parameters(out, *model);
  const std::string bytes = out.str();

  // Round trip into a second model built from a different init.
  util::Rng rng2(8);
  auto other = core::build_model(net, core::BorderMode::kZeroPad, rng2);
  std::istringstream in(bytes, std::ios::binary);
  nn::load_parameters(in, *other);
  const auto a = core::export_parameters(*model);
  const auto b = core::export_parameters(*other);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    parpde::testing::expect_tensors_equal(a[i], b[i]);
  }

  // One flipped payload byte must be caught by the CRC.
  std::string corrupt = bytes;
  corrupt[corrupt.size() - 3] ^= 0x40;
  std::istringstream bad(corrupt, std::ios::binary);
  EXPECT_THROW(nn::load_parameters(bad, *other), std::runtime_error);

  // A torn write (short file) must be reported as truncation, not parsed.
  std::istringstream torn(bytes.substr(0, bytes.size() / 2),
                          std::ios::binary);
  EXPECT_THROW(nn::load_parameters(torn, *other), std::runtime_error);
}

TEST(NnSerialize, RejectsTheLegacyUnframedFormat) {
  core::NetworkConfig net;
  net.channels = {2, 3, 2};
  util::Rng rng(3);
  auto model = core::build_model(net, core::BorderMode::kZeroPad, rng);

  // v2 file = magic | u32 version | u64 len | u32 crc | payload; the retired
  // v1 format was the bare payload, which no reader accepts any more.
  std::ostringstream out(std::ios::binary);
  nn::save_parameters(out, *model);
  const std::string legacy = out.str().substr(4 + 4 + 8 + 4);

  std::istringstream in(legacy, std::ios::binary);
  try {
    nn::load_parameters(in, *model);
    FAIL() << "a bare v1 payload loaded";
  } catch (const util::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

// --- crash-consistent training checkpoints -----------------------------------

core::TrainerSnapshot sample_snapshot(int next_epoch) {
  core::TrainerSnapshot snap;
  snap.next_epoch = next_epoch;
  Tensor w({2, 3});
  for (std::int64_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(i) + 0.5f;
  }
  snap.parameters = {w};
  snap.optimizer.name = "adam";
  snap.optimizer.step_count = 17;
  snap.optimizer.learning_rate = 1e-3;
  snap.optimizer.slots = {w, w};
  snap.batcher_rng = "12345 67890";
  snap.epochs = {{0.5, 1.0}, {0.25, 1.0}};
  return snap;
}

TEST(TrainCheckpoint, SaveLoadRoundTripPreservesEveryField) {
  const auto dir = unique_dir("ckpt_roundtrip");
  const auto snap = sample_snapshot(2);
  const auto path = core::save_rank_checkpoint(dir, 1, snap);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / "rank1.latest"));

  int rank = -1;
  core::TrainerSnapshot loaded;
  std::string why;
  ASSERT_TRUE(core::read_rank_checkpoint(path, &rank, &loaded, &why)) << why;
  EXPECT_EQ(rank, 1);
  EXPECT_EQ(loaded.next_epoch, 2);
  EXPECT_EQ(loaded.batcher_rng, snap.batcher_rng);
  EXPECT_EQ(loaded.optimizer.name, "adam");
  EXPECT_EQ(loaded.optimizer.step_count, 17);
  EXPECT_DOUBLE_EQ(loaded.optimizer.learning_rate, 1e-3);
  ASSERT_EQ(loaded.optimizer.slots.size(), 2u);
  ASSERT_EQ(loaded.parameters.size(), 1u);
  parpde::testing::expect_tensors_equal(loaded.parameters[0],
                                        snap.parameters[0]);
  ASSERT_EQ(loaded.epochs.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.epochs[1].loss, 0.25);
  EXPECT_DOUBLE_EQ(loaded.epochs[1].seconds, 1.0);
}

TEST(TrainCheckpoint, LoadLatestPicksTheNewestEpoch) {
  const auto dir = unique_dir("ckpt_latest");
  core::save_rank_checkpoint(dir, 0, sample_snapshot(1));
  core::save_rank_checkpoint(dir, 0, sample_snapshot(3));
  core::save_rank_checkpoint(dir, 2, sample_snapshot(9));  // other rank
  const auto latest = core::load_latest_checkpoint(dir, 0);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_epoch, 3);
  EXPECT_FALSE(core::load_latest_checkpoint(dir, 7).has_value());
}

TEST(TrainCheckpoint, TornAndCorruptFilesAreSkippedNotLoaded) {
  const auto dir = unique_dir("ckpt_torn");
  core::save_rank_checkpoint(dir, 0, sample_snapshot(1));
  const auto newest = core::save_rank_checkpoint(dir, 0, sample_snapshot(2));

  // Tear the newest file in half, as a crash mid-write would (without the
  // atomic rename; the rename protocol makes this state unreachable, but the
  // reader must survive it anyway, e.g. after a partial copy).
  const auto size = std::filesystem::file_size(newest);
  std::filesystem::resize_file(newest, size / 2);

  int rank = -1;
  core::TrainerSnapshot snap;
  std::string why;
  EXPECT_FALSE(core::read_rank_checkpoint(newest, &rank, &snap, &why));
  EXPECT_FALSE(why.empty());

  // load_latest must fall back to the older valid checkpoint.
  const auto latest = core::load_latest_checkpoint(dir, 0);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_epoch, 1);

  // A single flipped byte fails the CRC the same way.
  const auto again = core::save_rank_checkpoint(dir, 0, sample_snapshot(4));
  {
    std::fstream f(again, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-5, std::ios::end);
    char c = 0;
    f.read(&c, 1);
    f.seekp(-5, std::ios::end);
    c = static_cast<char>(c ^ 0x20);
    f.write(&c, 1);
  }
  EXPECT_FALSE(core::read_rank_checkpoint(again, &rank, &snap, &why));
  EXPECT_NE(why.find("CRC"), std::string::npos) << why;
  EXPECT_EQ(core::load_latest_checkpoint(dir, 0)->next_epoch, 1);

  // A well-formed file framed as PPTC version 1 (the layout that still
  // carried early-stopping and learning-rate-decay state) is refused by its
  // version and counted, never parsed as the current layout.
  const auto valid = core::save_rank_checkpoint(dir, 0, sample_snapshot(5));
  std::string payload;
  {
    std::ifstream in(valid, std::ios::binary);
    payload = util::read_verified(in, "PPTC", {2}).payload;
  }
  std::filesystem::remove(valid);
  const auto legacy =
      (std::filesystem::path(dir) / "rank0_epoch000009.ckpt").string();
  util::write_atomic(legacy, util::frame("PPTC", 1, payload));
  auto& skipped = telemetry::counter("checkpoint.invalid_skipped");
  const auto skipped_before = skipped.value();
  EXPECT_FALSE(core::read_rank_checkpoint(legacy, &rank, &snap, &why));
  EXPECT_NE(why.find("version 1"), std::string::npos) << why;
  EXPECT_EQ(skipped.value(), skipped_before + 1);
  EXPECT_EQ(core::load_latest_checkpoint(dir, 0)->next_epoch, 1);
}

TEST(TrainCheckpoint, GarbageFileIsRejectedWithDiagnostic) {
  const auto dir = unique_dir("ckpt_garbage");
  const auto path = std::filesystem::path(dir) / "rank0_epoch000001.ckpt";
  std::ofstream(path, std::ios::binary) << "not a checkpoint at all";
  int rank = -1;
  core::TrainerSnapshot snap;
  std::string why;
  EXPECT_FALSE(core::read_rank_checkpoint(path.string(), &rank, &snap, &why));
  EXPECT_NE(why.find("magic"), std::string::npos) << why;
  EXPECT_FALSE(core::load_latest_checkpoint(dir, 0).has_value());
}

}  // namespace
}  // namespace parpde
