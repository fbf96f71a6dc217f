// Point-to-point semantics of the message-passing substrate: matching by
// source and tag, non-overtaking order, any-source receives, traffic
// counters, and error handling.

#include <gtest/gtest.h>

#include <chrono>

#include "minimpi/environment.hpp"
#include "minimpi/validate.hpp"

namespace parpde::mpi {
namespace {

TEST(Environment, RejectsNonPositiveSize) {
  EXPECT_THROW(Environment(0), std::invalid_argument);
  EXPECT_THROW(Environment(-3), std::invalid_argument);
}

TEST(Environment, RunsEveryRankExactlyOnce) {
  Environment env(8);
  std::vector<int> hits(8, 0);
  env.run([&](Communicator& comm) { hits[comm.rank()] = comm.size(); });
  for (const int h : hits) EXPECT_EQ(h, 8);
}

TEST(Environment, RethrowsRankException) {
  Environment env(4);
  EXPECT_THROW(env.run([](Communicator& comm) {
    if (comm.rank() == 2) throw std::runtime_error("rank 2 failed");
  }),
               std::runtime_error);
}

TEST(P2P, SendRecvDeliversPayload) {
  Environment env(2);
  env.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> data = {1.5, 2.5, 3.5};
      comm.send<double>(1, 7, data);
    } else {
      const auto got = comm.recv<double>(0, 7);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_DOUBLE_EQ(got[1], 2.5);
    }
  });
}

TEST(P2P, TagsKeepStreamsSeparate) {
  Environment env(2);
  env.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, /*tag=*/10, 100);
      comm.send_value<int>(1, /*tag=*/20, 200);
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      EXPECT_EQ(comm.recv_value<int>(0, 20), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 10), 100);
    }
  });
}

TEST(P2P, NonOvertakingWithinSameTag) {
  Environment env(2);
  env.run([](Communicator& comm) {
    constexpr int kCount = 50;
    if (comm.rank() == 0) {
      for (int i = 0; i < kCount; ++i) comm.send_value<int>(1, 5, i);
    } else {
      for (int i = 0; i < kCount; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 5), i);
      }
    }
  });
}

TEST(P2P, AnySourceReceivesFromAll) {
  Environment env(5);
  env.run([](Communicator& comm) {
    if (comm.rank() != 0) {
      comm.send_value<int>(0, 3, comm.rank() * 11);
      return;
    }
    std::vector<bool> seen(5, false);
    for (int i = 1; i < 5; ++i) {
      int source = -99;
      const int value = comm.recv_value<int>(kAnySource, 3, &source);
      EXPECT_EQ(value, source * 11);
      EXPECT_FALSE(seen[source]);
      seen[source] = true;
    }
  });
}

TEST(P2P, SendToProcNullIsDropped) {
  Environment env(1);
  env.run([](Communicator& comm) {
    comm.send_value<int>(kProcNull, 1, 42);  // must not throw or deliver
    EXPECT_EQ(comm.messages_sent(), 0u);
  });
}

TEST(P2P, RecvFromProcNullThrows) {
  Environment env(1);
  env.run([](Communicator& comm) {
    EXPECT_THROW(comm.recv<int>(kProcNull, 0), std::invalid_argument);
  });
}

TEST(P2P, OutOfRangePeerThrows) {
  Environment env(2);
  env.run([](Communicator& comm) {
    EXPECT_THROW(comm.send_value<int>(5, 0, 1), std::invalid_argument);
    EXPECT_THROW(comm.recv<int>(-7, 0), std::invalid_argument);
  });
}

TEST(P2P, TrafficCountersTrackBytes) {
  Environment env(2);
  env.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.reset_counters();
      const std::vector<double> payload(10, 1.0);
      comm.send<double>(1, 1, payload);
      EXPECT_EQ(comm.bytes_sent(), 10 * sizeof(double));
      EXPECT_EQ(comm.messages_sent(), 1u);
    } else {
      comm.recv<double>(0, 1);
    }
  });
}

TEST(P2P, ManyRanksRingPassesToken) {
  constexpr int kRanks = 16;
  Environment env(kRanks);
  env.run([kRanks](Communicator& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    if (comm.rank() == 0) {
      comm.send_value<int>(next, 0, 1);
      EXPECT_EQ(comm.recv_value<int>(prev, 0), kRanks);
    } else {
      const int token = comm.recv_value<int>(prev, 0);
      comm.send_value<int>(next, 0, token + 1);
    }
  });
}

TEST(P2P, EnvironmentRunsAreIsolated) {
  // Messages from a previous run must not leak into the next run. The
  // undelivered message is the point of the test, so the validator's
  // finalize leak check must sit this one out.
  const bool was_validating = validate::enabled();
  validate::set_enabled(false);
  Environment env(2);
  env.run([](Communicator& comm) {
    if (comm.rank() == 0) comm.send_value<int>(1, 8, 1);  // never received
  });
  env.run([](Communicator& comm) {
    if (comm.rank() == 1) {
      std::vector<int> out;
      EXPECT_EQ(comm.recv_for<int>(0, 8, std::chrono::milliseconds(0), &out),
                RecvStatus::kTimeout);
    }
  });
  validate::set_enabled(was_validating);
}

}  // namespace
}  // namespace parpde::mpi
