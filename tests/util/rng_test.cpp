#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace rap::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7);
  Rng b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 16; ++i) values.insert(rng.next_u64());
  EXPECT_GT(values.size(), 10u);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.next_below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, 500);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(17);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, NextDoubleRange) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
  EXPECT_THROW(rng.next_double(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, GaussianMomentsMatch) {
  Rng rng(23);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.next_gaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kSamples, 1.0, 0.03);
}

TEST(Rng, GaussianScaled) {
  Rng rng(29);
  double sum = 0.0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) sum += rng.next_gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / kSamples, 10.0, 0.1);
  EXPECT_THROW(rng.next_gaussian(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, BoolProbability) {
  Rng rng(31);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
  EXPECT_THROW(rng.next_bool(1.5), std::invalid_argument);
  EXPECT_THROW(rng.next_bool(-0.1), std::invalid_argument);
}

TEST(Rng, BoolDegenerateProbabilities) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(41);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
  EXPECT_THROW(rng.next_exponential(0.0), std::invalid_argument);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(43);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.next_poisson(3.0));
  }
  EXPECT_NEAR(sum / kSamples, 3.0, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(47);
  double sum = 0.0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.next_poisson(200.0));
  }
  EXPECT_NEAR(sum / kSamples, 200.0, 1.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(53);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_poisson(0.0), 0u);
  EXPECT_THROW(rng.next_poisson(-1.0), std::invalid_argument);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(59);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {};
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.next_weighted(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, WeightedRejectsBadInput) {
  Rng rng(61);
  const std::vector<double> zero{0.0, 0.0};
  const std::vector<double> negative{1.0, -1.0};
  EXPECT_THROW(rng.next_weighted(zero), std::invalid_argument);
  EXPECT_THROW(rng.next_weighted(negative), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(67);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7};
  auto shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(71);
  const auto sample = rng.sample_without_replacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const std::size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, SampleWholePopulation) {
  Rng rng(73);
  const auto sample = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleTooManyThrows) {
  Rng rng(79);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  const Rng parent(83);
  Rng childA = parent.fork(0);
  Rng childA2 = parent.fork(0);
  Rng childB = parent.fork(1);
  EXPECT_EQ(childA.next_u64(), childA2.next_u64());
  int same = 0;
  for (int i = 0; i < 100; ++i) same += childA.next_u64() == childB.next_u64();
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace rap::util
