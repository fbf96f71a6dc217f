// Domain decomposition: partition invariants (parameterized sweep), halo
// extraction, halo exchange against the monolithic reference, and the
// full-field gather.

#include <gtest/gtest.h>

#include <tuple>

#include "domain/exchange.hpp"
#include "domain/halo.hpp"
#include "domain/partition.hpp"
#include "helpers.hpp"
#include "minimpi/environment.hpp"
#include "util/random.hpp"

namespace parpde::domain {
namespace {

using parpde::testing::expect_tensors_equal;

Tensor random_frame(std::int64_t c, std::int64_t h, std::int64_t w,
                    std::uint64_t seed) {
  Tensor t({c, h, w});
  util::Rng rng(seed);
  rng.fill_uniform(t.values(), -1.0f, 1.0f);
  return t;
}

class PartitionSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(PartitionSweep, BlocksTileTheGridExactly) {
  const auto [h, w, px, py] = GetParam();
  const Partition part(h, w, px, py);
  // Coverage: every grid point belongs to exactly one block.
  std::vector<int> owner(static_cast<std::size_t>(h * w), -1);
  for (int r = 0; r < part.blocks(); ++r) {
    const BlockRange b = part.block_of_rank(r);
    EXPECT_GT(b.height(), 0);
    EXPECT_GT(b.width(), 0);
    for (std::int64_t y = b.h0; y < b.h1; ++y) {
      for (std::int64_t x = b.w0; x < b.w1; ++x) {
        auto& cell = owner[static_cast<std::size_t>(y * w + x)];
        EXPECT_EQ(cell, -1) << "double ownership at " << y << "," << x;
        cell = r;
      }
    }
  }
  for (const int cell : owner) EXPECT_NE(cell, -1);
}

TEST_P(PartitionSweep, BlockSizesAreBalanced) {
  const auto [h, w, px, py] = GetParam();
  const Partition part(h, w, px, py);
  std::int64_t min_pts = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_pts = 0;
  for (int r = 0; r < part.blocks(); ++r) {
    const auto pts = part.block_of_rank(r).points();
    min_pts = std::min(min_pts, pts);
    max_pts = std::max(max_pts, pts);
  }
  // Height and width each differ by at most one line between blocks.
  const std::int64_t hmax = (h + py - 1) / py, hmin = h / py;
  const std::int64_t wmax = (w + px - 1) / px, wmin = w / px;
  EXPECT_LE(max_pts, hmax * wmax);
  EXPECT_GE(min_pts, hmin * wmin);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionSweep,
    ::testing::Values(std::tuple{16, 16, 1, 1}, std::tuple{16, 16, 2, 2},
                      std::tuple{16, 16, 4, 4}, std::tuple{17, 19, 3, 2},
                      std::tuple{64, 64, 8, 8}, std::tuple{100, 30, 5, 7},
                      std::tuple{9, 9, 3, 3}, std::tuple{33, 65, 4, 4}));

TEST(Partition, RankMappingMatchesCartConvention) {
  const Partition part(8, 8, 2, 2);
  EXPECT_EQ(part.block_of_rank(1), part.block(1, 0));
  EXPECT_EQ(part.block_of_rank(2), part.block(0, 1));
}

TEST(Partition, RejectsBadArguments) {
  EXPECT_THROW(Partition(0, 8, 1, 1), std::invalid_argument);
  EXPECT_THROW(Partition(8, 8, 0, 1), std::invalid_argument);
  EXPECT_THROW(Partition(4, 4, 5, 1), std::invalid_argument);
  const Partition part(8, 8, 2, 2);
  EXPECT_THROW(part.block(2, 0), std::invalid_argument);
  EXPECT_THROW(part.block_of_rank(4), std::invalid_argument);
}

TEST(ReceptiveHalo, MatchesLayerStack) {
  EXPECT_EQ(receptive_halo(1, 5), 2);
  EXPECT_EQ(receptive_halo(4, 5), 8);  // Table I network
  EXPECT_EQ(receptive_halo(3, 3), 3);
  EXPECT_THROW(receptive_halo(0, 5), std::invalid_argument);
  EXPECT_THROW(receptive_halo(2, 4), std::invalid_argument);
}

TEST(Halo, InteriorExtraction) {
  const Tensor frame = random_frame(2, 8, 10, 1);
  const BlockRange block{2, 5, 3, 7};
  const Tensor sub = extract_interior(frame, block);
  EXPECT_EQ(sub.shape(), (Shape{2, 3, 4}));
  EXPECT_EQ(sub.at(1, 0, 0), frame.at(1, 2, 3));
  EXPECT_EQ(sub.at(0, 2, 3), frame.at(0, 4, 6));
}

TEST(Halo, HaloFromInteriorNeighbors) {
  const Tensor frame = random_frame(1, 10, 10, 2);
  const BlockRange block{4, 7, 4, 7};
  const Tensor sub = extract_with_halo(frame, block, 2);
  EXPECT_EQ(sub.shape(), (Shape{1, 7, 7}));
  // Center matches the block; rim matches the neighbours.
  EXPECT_EQ(sub.at(0, 2, 2), frame.at(0, 4, 4));
  EXPECT_EQ(sub.at(0, 0, 0), frame.at(0, 2, 2));
  EXPECT_EQ(sub.at(0, 6, 6), frame.at(0, 8, 8));
}

TEST(Halo, PhysicalBoundaryIsZeroFilled) {
  const Tensor frame = random_frame(1, 6, 6, 3);
  const BlockRange block{0, 3, 0, 3};  // corner block
  const Tensor sub = extract_with_halo(frame, block, 2);
  EXPECT_EQ(sub.at(0, 0, 0), 0.0f);
  EXPECT_EQ(sub.at(0, 1, 3), 0.0f);
  EXPECT_EQ(sub.at(0, 2, 2), frame.at(0, 0, 0));
}

TEST(Halo, InsertInteriorRoundtrip) {
  const Tensor frame = random_frame(3, 9, 9, 4);
  const BlockRange block{3, 6, 0, 4};
  const Tensor sub = extract_interior(frame, block);
  Tensor rebuilt({3, 9, 9});
  insert_interior(rebuilt, block, sub);
  expect_tensors_equal(extract_interior(rebuilt, block), sub);
}

TEST(Halo, ErrorsOnBadBlocks) {
  const Tensor frame = random_frame(1, 4, 4, 5);
  EXPECT_THROW(extract_with_halo(frame, {0, 5, 0, 4}, 0), std::invalid_argument);
  EXPECT_THROW(extract_with_halo(frame, {0, 4, 0, 4}, -1), std::invalid_argument);
  Tensor dst({1, 4, 4});
  EXPECT_THROW(insert_interior(dst, {0, 2, 0, 2}, Tensor({1, 3, 3})),
               std::invalid_argument);
}

class ExchangeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ExchangeSweep, MatchesMonolithicHaloExtraction) {
  // The distributed halo exchange must reproduce exactly what
  // extract_with_halo computes from the assembled global field.
  const auto [grid, px, py, halo] = GetParam();
  const Tensor frame = random_frame(4, grid, grid, 77);
  const Partition part(grid, grid, px, py);
  const int ranks = px * py;

  std::vector<Tensor> results(static_cast<std::size_t>(ranks));
  mpi::Environment env(ranks);
  env.run([&](mpi::Communicator& comm) {
    mpi::CartComm cart(comm, px, py);
    const Tensor interior =
        extract_interior(frame, part.block(cart.cx(), cart.cy()));
    results[static_cast<std::size_t>(comm.rank())] =
        exchange_halo(cart, part, interior, halo);
  });

  for (int r = 0; r < ranks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const Tensor expected =
        extract_with_halo(frame, part.block_of_rank(r), halo);
    expect_tensors_equal(results[static_cast<std::size_t>(r)], expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExchangeSweep,
    ::testing::Values(std::tuple{12, 2, 2, 2}, std::tuple{12, 1, 1, 3},
                      std::tuple{16, 4, 2, 2}, std::tuple{18, 3, 3, 4},
                      std::tuple{24, 4, 4, 5}, std::tuple{16, 4, 4, 0},
                      std::tuple{20, 5, 1, 3}, std::tuple{32, 8, 4, 4}));

TEST(Exchange, CommTimerAccumulates) {
  const Tensor frame = random_frame(1, 8, 8, 9);
  const Partition part(8, 8, 2, 2);
  std::vector<double> comm_times(4, -1.0);
  mpi::Environment env(4);
  env.run([&](mpi::Communicator& comm) {
    mpi::CartComm cart(comm, 2, 2);
    util::AccumulatingTimer timer;
    const Tensor interior =
        extract_interior(frame, part.block(cart.cx(), cart.cy()));
    exchange_halo(cart, part, interior, 2, &timer);
    comm_times[static_cast<std::size_t>(comm.rank())] = timer.seconds();
  });
  for (const double t : comm_times) EXPECT_GE(t, 0.0);
}

TEST(Exchange, HaloLargerThanBlockThrows) {
  const Tensor frame = random_frame(1, 8, 8, 10);
  const Partition part(8, 8, 4, 4);  // 2x2 blocks
  mpi::Environment env(16);
  EXPECT_THROW(env.run([&](mpi::Communicator& comm) {
    mpi::CartComm cart(comm, 4, 4);
    const Tensor interior =
        extract_interior(frame, part.block(cart.cx(), cart.cy()));
    exchange_halo(cart, part, interior, 3);
  }),
               std::invalid_argument);
}

TEST(Gather, ReassemblesPartitionedField) {
  const Tensor frame = random_frame(4, 12, 12, 11);
  const Partition part(12, 12, 3, 2);
  Tensor gathered;
  mpi::Environment env(6);
  env.run([&](mpi::Communicator& comm) {
    mpi::CartComm cart(comm, 3, 2);
    const Tensor mine =
        extract_interior(frame, part.block(cart.cx(), cart.cy()));
    const Tensor full = gather_field(cart, part, mine);
    if (comm.rank() == 0) gathered = full;
  });
  expect_tensors_equal(gathered, frame);
}

}  // namespace
}  // namespace parpde::domain
