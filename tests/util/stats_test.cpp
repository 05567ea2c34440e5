#include "src/util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

namespace rap::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, EmptyMinMaxAreFoldIdentities) {
  // Sentinels, not 0: an empty accumulator must be a no-op when merged and
  // must never shadow real samples in min/max comparisons.
  const RunningStats s;
  EXPECT_EQ(s.min(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.max(), -std::numeric_limits<double>::infinity());
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, NegativeValuesTrackMinMax) {
  RunningStats s;
  s.add(-3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), -1.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  const std::vector<double> data{1.0, 2.5, -4.0, 8.0, 0.5, 3.25, 7.0};
  for (std::size_t i = 0; i < data.size(); ++i) {
    all.add(data[i]);
    (i < 3 ? left : right).add(data[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(RunningStats, MergeEmptyPreservesMinMax) {
  RunningStats a;
  a.add(-2.0);
  a.add(6.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.min(), -2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
  RunningStats other;
  other.merge(a);
  EXPECT_DOUBLE_EQ(other.min(), -2.0);
  EXPECT_DOUBLE_EQ(other.max(), 6.0);
}

TEST(RunningStats, MergeDisjointRanges) {
  RunningStats low;
  low.add(1.0);
  low.add(2.0);
  RunningStats high;
  high.add(10.0);
  high.add(20.0);
  low.merge(high);
  EXPECT_EQ(low.count(), 4u);
  EXPECT_DOUBLE_EQ(low.min(), 1.0);
  EXPECT_DOUBLE_EQ(low.max(), 20.0);
  EXPECT_DOUBLE_EQ(low.mean(), 8.25);
}

TEST(RunningStats, NumericallyStableOnLargeOffset) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2 == 0 ? 1.0 : -1.0));
  EXPECT_NEAR(s.variance(), 1.001, 0.01);  // ~1 (exactly n/(n-1))
}

TEST(Percentile, Median) {
  const std::vector<double> data{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(data, 50.0), 3.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> data{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(data, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(data, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(data, 100.0), 10.0);
}

TEST(Percentile, Validation) {
  const std::vector<double> empty;
  const std::vector<double> one{1.0};
  EXPECT_THROW(percentile(empty, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile(one, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(one, 101.0), std::invalid_argument);
}

TEST(PercentileSorted, AgreesWithPercentile) {
  const std::vector<double> unsorted{5.0, 1.0, 9.0, 3.0, 7.0};
  std::vector<double> sorted = unsorted;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.0, 12.5, 50.0, 90.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, q), percentile(unsorted, q))
        << "q=" << q;
  }
}

TEST(PercentileSorted, Validation) {
  const std::vector<double> empty;
  const std::vector<double> one{1.0};
  EXPECT_THROW(percentile_sorted(empty, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile_sorted(one, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile_sorted(one, 101.0), std::invalid_argument);
}

}  // namespace
}  // namespace rap::util
