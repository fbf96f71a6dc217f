// Data handling: frame dataset splits, per-channel normalization, and the
// mini-batch scheduler.

#include <gtest/gtest.h>

#include <set>

#include "data/batcher.hpp"
#include "data/dataset.hpp"
#include "data/normalizer.hpp"
#include "helpers.hpp"
#include "util/random.hpp"

namespace parpde::data {
namespace {

std::vector<Tensor> make_frames(int count, std::int64_t c = 2,
                                std::int64_t n = 4) {
  std::vector<Tensor> frames;
  for (int f = 0; f < count; ++f) {
    Tensor t({c, n, n});
    for (std::int64_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(f) + 0.001f * static_cast<float>(i);
    }
    frames.push_back(std::move(t));
  }
  return frames;
}

TEST(FrameDataset, BasicAccessors) {
  const FrameDataset ds(make_frames(5, 3, 6));
  EXPECT_EQ(ds.num_frames(), 5);
  EXPECT_EQ(ds.num_pairs(), 4);
  EXPECT_EQ(ds.channels(), 3);
  EXPECT_EQ(ds.height(), 6);
  EXPECT_EQ(ds.width(), 6);
  EXPECT_FLOAT_EQ(ds.frame(2)[0], 2.0f);
}

TEST(FrameDataset, RejectsDegenerateInput) {
  EXPECT_THROW(FrameDataset(make_frames(1)), std::invalid_argument);
  auto frames = make_frames(3);
  frames.push_back(Tensor({2, 5, 5}));  // inconsistent shape
  EXPECT_THROW(FrameDataset(std::move(frames)), std::invalid_argument);
}

TEST(FrameDataset, ChronologicalSplitMatchesPaperRatio) {
  // Paper: 1500 frames, first 1000 pairs train. With 1501 frames and
  // fraction 2/3 we get exactly 1000 train pairs.
  const FrameDataset ds(make_frames(16));
  const Split split = ds.chronological_split(2.0 / 3.0);
  EXPECT_EQ(split.train.size(), 10u);
  EXPECT_EQ(split.val.size(), 5u);
  // Chronological: all train indices precede all validation indices.
  EXPECT_EQ(split.train.front(), 0);
  EXPECT_EQ(split.train.back(), 9);
  EXPECT_EQ(split.val.front(), 10);
  EXPECT_EQ(split.val.back(), 14);
}

TEST(FrameDataset, SplitAlwaysKeepsBothSides) {
  const FrameDataset ds(make_frames(3));  // 2 pairs
  const Split lo = ds.chronological_split(0.01);
  EXPECT_GE(lo.train.size(), 1u);
  EXPECT_GE(lo.val.size(), 1u);
  const Split hi = ds.chronological_split(0.99);
  EXPECT_GE(hi.train.size(), 1u);
  EXPECT_GE(hi.val.size(), 1u);
  EXPECT_THROW(ds.chronological_split(0.0), std::invalid_argument);
  EXPECT_THROW(ds.chronological_split(1.0), std::invalid_argument);
}

TEST(Normalizer, FitComputesChannelMoments) {
  std::vector<Tensor> frames;
  Tensor t({2, 2, 2});
  // Channel 0: constant 4; channel 1: {0, 2, 4, 6}.
  t[0] = t[1] = t[2] = t[3] = 4.0f;
  t[4] = 0.0f;
  t[5] = 2.0f;
  t[6] = 4.0f;
  t[7] = 6.0f;
  frames.push_back(t);
  const auto norm = ChannelNormalizer::fit(frames);
  EXPECT_NEAR(norm.mean(0), 4.0, 1e-6);
  EXPECT_NEAR(norm.mean(1), 3.0, 1e-6);
  EXPECT_NEAR(norm.stddev(1), std::sqrt((9 + 1 + 1 + 9) / 3.0), 1e-6);
}

TEST(Normalizer, ApplyInvertRoundtrip) {
  util::Rng rng(5);
  Tensor t({3, 4, 4});
  rng.fill_uniform(t.values(), -3.0f, 5.0f);
  std::vector<Tensor> frames = {t};
  const auto norm = ChannelNormalizer::fit(frames);
  const Tensor round = norm.invert(norm.apply(t));
  parpde::testing::expect_tensors_close(round, t, 1e-4, 1e-4);
}

TEST(Normalizer, NormalizedDataHasZeroMeanUnitStd) {
  util::Rng rng(6);
  Tensor t({1, 16, 16});
  rng.fill_uniform(t.values(), 10.0f, 30.0f);
  std::vector<Tensor> frames = {t};
  const auto norm = ChannelNormalizer::fit(frames);
  const Tensor z = norm.apply(t);
  double sum = 0.0, sq = 0.0;
  for (std::int64_t i = 0; i < z.size(); ++i) {
    sum += z[i];
    sq += static_cast<double>(z[i]) * z[i];
  }
  const double mean = sum / static_cast<double>(z.size());
  EXPECT_NEAR(mean, 0.0, 1e-4);
  EXPECT_NEAR(sq / static_cast<double>(z.size()) - mean * mean, 1.0, 0.05);
}

TEST(Normalizer, BatchedTensorsSupported) {
  const auto norm = ChannelNormalizer::identity(2);
  Tensor t({3, 2, 4, 4});
  t.fill(1.0f);
  const Tensor out = norm.apply(t);
  EXPECT_TRUE(out.same_shape(t));
  EXPECT_EQ(out[0], 1.0f);  // identity transform
}

TEST(Normalizer, ConstantChannelDoesNotDivideByZero) {
  Tensor t({1, 2, 2});
  t.fill(7.0f);
  std::vector<Tensor> frames = {t};
  const auto norm = ChannelNormalizer::fit(frames);
  const Tensor z = norm.apply(t);
  for (std::int64_t i = 0; i < z.size(); ++i) EXPECT_TRUE(std::isfinite(z[i]));
}

TEST(Normalizer, ChannelMismatchThrows) {
  const auto norm = ChannelNormalizer::identity(2);
  EXPECT_THROW(norm.apply(Tensor({3, 4, 4})), std::invalid_argument);
}

TEST(Batcher, CoversEverySampleOncePerEpoch) {
  Batcher batcher(23, 5, /*seed=*/1);
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto batches = batcher.next_epoch();
    EXPECT_EQ(batches.size(), 5u);  // ceil(23/5)
    std::set<std::int64_t> seen;
    for (const auto& b : batches) {
      for (const auto i : b) {
        EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
      }
    }
    EXPECT_EQ(seen.size(), 23u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 22);
  }
}

TEST(Batcher, BatchSizesAreFullExceptLast) {
  Batcher batcher(10, 4, 2);
  const auto batches = batcher.next_epoch();
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 4u);
  EXPECT_EQ(batches[1].size(), 4u);
  EXPECT_EQ(batches[2].size(), 2u);
}

TEST(Batcher, DeterministicGivenSeed) {
  Batcher a(50, 7, 99), b(50, 7, 99);
  EXPECT_EQ(a.next_epoch(), b.next_epoch());
  EXPECT_EQ(a.next_epoch(), b.next_epoch());  // second epoch too
}

TEST(Batcher, ShufflingChangesOrderAcrossEpochs) {
  Batcher batcher(100, 100, 3);
  const auto e1 = batcher.next_epoch();
  const auto e2 = batcher.next_epoch();
  EXPECT_NE(e1[0], e2[0]);
}

TEST(Batcher, RejectsBadArguments) {
  EXPECT_THROW(Batcher(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(Batcher(5, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace parpde::data
