// Debug message-matching validator (minimpi/validate.hpp): typed-envelope
// checks, the deadlock watchdog with its per-rank pending-op dump, the
// finalize leak check, phase policies, and the zero-comm training assertion.

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "core/parallel_trainer.hpp"
#include "euler/simulate.hpp"
#include "minimpi/collectives.hpp"
#include "minimpi/environment.hpp"
#include "minimpi/tags.hpp"
#include "util/telemetry.hpp"

namespace parpde::mpi {
namespace {

// Tags outside every registered range ("user" space, fine in tests).
constexpr int kTestTag = 77;
constexpr int kOtherTag = 78;

class ValidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    validate::set_enabled(true);
    validate::set_timeout_ms(250);
  }
  void TearDown() override {
    validate::set_enabled(false);
    validate::set_timeout_ms(10000);
  }
};

TEST_F(ValidateTest, MatchedTrafficPassesUnchanged) {
  Environment env(2);
  env.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<double>(1, kTestTag, 2.5);
    } else {
      EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, kTestTag), 2.5);
    }
  });
}

TEST_F(ValidateTest, TypeMismatchRecvTraps) {
  // The blocking and the bounded receive share one typed-envelope check.
  for (const bool bounded : {false, true}) {
    Environment env(2);
    try {
      env.run([bounded](Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send_value<float>(1, kTestTag, 1.0f);
        } else if (bounded) {
          std::vector<double> out;
          (void)comm.recv_for<double>(0, kTestTag, std::chrono::seconds(2),
                                      &out);
        } else {
          comm.recv_value<double>(0, kTestTag);
        }
      });
      FAIL() << "expected validate::EnvelopeError (bounded=" << bounded << ")";
    } catch (const validate::EnvelopeError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("typed-envelope mismatch"), std::string::npos) << msg;
      EXPECT_NE(msg.find("sender element size 4"), std::string::npos) << msg;
      EXPECT_NE(msg.find("receiver expects 8"), std::string::npos) << msg;
    }
  }
}

TEST_F(ValidateTest, EnvelopeUsesRegistryNamesInDiagnostics) {
  Environment env(2);
  try {
    env.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        comm.send_value<float>(1, tags::kHalo.base + 1, 1.0f);
      } else {
        comm.recv_value<std::int64_t>(0, tags::kHalo.base + 1);
      }
    });
    FAIL() << "expected validate::EnvelopeError";
  } catch (const validate::EnvelopeError& e) {
    EXPECT_NE(std::string(e.what()).find("domain.halo+1"), std::string::npos)
        << e.what();
  }
}

TEST_F(ValidateTest, WatchdogDumpsPendingOpsInsteadOfHanging) {
  Environment env(2);
  try {
    env.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        // A message nobody will consume, so the dump shows queued traffic...
        comm.send_value<int>(1, kOtherTag, 42);
        return;
      }
      // ...while this receive waits for a tag that never arrives.
      comm.recv_value<int>(0, kTestTag);
    });
    FAIL() << "expected validate::DeadlockError";
  } catch (const validate::DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock watchdog"), std::string::npos) << msg;
    EXPECT_NE(msg.find("blocked recv"), std::string::npos) << msg;
    EXPECT_NE(msg.find("queued message from rank 0"), std::string::npos) << msg;
  }
}

TEST_F(ValidateTest, WatchdogCoversBarrier) {
  Environment env(2);
  try {
    env.run([](Communicator& comm) {
      if (comm.rank() == 0) barrier(comm);  // rank 1 never joins
    });
    FAIL() << "expected validate::DeadlockError";
  } catch (const validate::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("stuck in barrier"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ValidateTest, FinalizeLeakCheckReportsUnconsumedMessage) {
  Environment env(2);
  try {
    env.run([](Communicator& comm) {
      if (comm.rank() == 0) comm.send_value<int>(1, kOtherTag, 7);
    });
    FAIL() << "expected validate::LeakError";
  } catch (const validate::LeakError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("finalize leak check"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unconsumed message from rank 0"), std::string::npos)
        << msg;
  }
}

TEST_F(ValidateTest, CleanRunPassesLeakCheck) {
  Environment env(4);
  env.run([](Communicator& comm) {
    std::vector<double> v = {1.0 * comm.rank()};
    allreduce<double>(comm, v, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v[0], 6.0);
  });
}

TEST_F(ValidateTest, ForbiddenPhaseTrapsSendAndRecv) {
  Environment env(2);
  EXPECT_THROW(env.run([](Communicator& comm) {
                 PhaseScope phase(comm, "test.zero_comm",
                                  CommPolicy::kForbidden);
                 if (comm.rank() == 0) {
                   comm.send_value<int>(1, kTestTag, 1);
                 }
               }),
               validate::PhaseError);
  EXPECT_THROW(env.run([](Communicator& comm) {
                 PhaseScope phase(comm, "test.zero_comm",
                                  CommPolicy::kForbidden);
                 if (comm.rank() == 1) {
                   comm.recv_value<int>(0, kTestTag);
                 }
               }),
               validate::PhaseError);
}

TEST_F(ValidateTest, PhaseScopeRestoresOuterPolicy) {
  Environment env(2);
  env.run([](Communicator& comm) {
    {
      PhaseScope phase(comm, "inner", CommPolicy::kForbidden);
      EXPECT_STREQ(comm.phase(), "inner");
    }
    EXPECT_STREQ(comm.phase(), "default");
    // Traffic is legal again outside the forbidden scope.
    if (comm.rank() == 0) {
      comm.send_value<int>(1, kTestTag, 3);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, kTestTag), 3);
    }
  });
}

TEST_F(ValidateTest, TrainingUnderValidatorRecordsZeroMessages) {
  // The paper's headline invariant, now enforced at runtime: a full parallel
  // train with the validator on records no training-phase traffic (a single
  // message would throw PhaseError inside the kForbidden scope).
  core::TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  cfg.loss = "mse";

  euler::EulerConfig ec;
  ec.n = 16;
  euler::SimulateOptions opts;
  opts.num_frames = 9;
  auto sim = euler::simulate(ec, opts);
  const data::FrameDataset ds(std::move(sim.frames));

  auto& trained = telemetry::counter("validate.phase.train.zero_comm.messages");
  const auto before = trained.value();
  const core::ParallelTrainer trainer(cfg, 4);
  const auto report = trainer.train(ds, core::ExecutionMode::kConcurrent);
  EXPECT_EQ(trained.value(), before)
      << "training-phase messages recorded under the validator";
  for (const auto& outcome : report.rank_outcomes) {
    EXPECT_EQ(outcome.train_bytes_sent, 0u);
    EXPECT_EQ(outcome.train_bytes_received, 0u);
  }
}

}  // namespace
}  // namespace parpde::mpi
