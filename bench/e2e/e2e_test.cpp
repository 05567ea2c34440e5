// Unit tests of the benchmark's own logic: the tail-percentile rule,
// quartiles as Python computes them, span folding into self time and the
// seeded Poisson schedule.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "bench/e2e/replay.h"
#include "bench/e2e/stats.h"
#include "src/obs/trace.h"

namespace rap::bench::e2e {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(TailRule, PicksTheHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(supported_percentile(10'000), 99.9);
  EXPECT_EQ(supported_percentile(1'000), 99.0);
  EXPECT_EQ(supported_percentile(999), 90.0);
  EXPECT_EQ(supported_percentile(100), 90.0);
}

TEST(TailRule, FallsBackToTheMedianOnASmallSample) {
  EXPECT_EQ(supported_percentile(99), 50.0);
  EXPECT_EQ(supported_percentile(6), 50.0);
}

TEST(TailRule, ValueInterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile(one_to(1'000), 99.0), 990.01);
  EXPECT_DOUBLE_EQ(percentile(one_to(6), 50.0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 50.0), 0.0);
}

TEST(TailRule, WindowedPercentileIgnoresOneStalledWindow) {
  std::vector<double> samples(3'000, 1.0);
  for (std::size_t i = 0; i < 100; ++i) samples[i] = 50.0;  // one stall
  EXPECT_DOUBLE_EQ(windowed_percentile(samples, 99.0, 1'000), 1.0);
  // Fewer than three windows: the whole sample's percentile.
  samples.resize(2'999);
  EXPECT_DOUBLE_EQ(windowed_percentile(samples, 99.0, 1'000), 50.0);
}

TEST(WindowedRate, MedianOfWholeWindows) {
  // 10 completions in [0, 1 s), 2 in [1 s, 2 s), 12 in [2 s, 3 s), and a
  // last one opening a window that never closes.
  std::vector<std::uint64_t> ends;
  for (int i = 0; i < 10; ++i) ends.push_back(100'000'000);
  for (int i = 0; i < 2; ++i) ends.push_back(1'100'000'000);
  for (int i = 0; i < 12; ++i) ends.push_back(2'100'000'000);
  ends.push_back(3'000'000'000);
  EXPECT_DOUBLE_EQ(windowed_rate(ends, 0, 1'000'000'000), 10.0);
  EXPECT_DOUBLE_EQ(windowed_rate({}, 0, 1'000'000'000), 0.0);
  // Shorter than one window: 3 completions by 0.5 s.
  const std::vector<std::uint64_t> short_run = {100'000'000, 200'000'000,
                                                500'000'000};
  EXPECT_DOUBLE_EQ(windowed_rate(short_run, 0, 1'000'000'000), 6.0);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles ten = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.median, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
  const Quartiles three = quartiles({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(three.q1, 1.0);
  EXPECT_DOUBLE_EQ(three.median, 3.0);
  EXPECT_DOUBLE_EQ(three.q3, 5.0);
  // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
  const Quartiles two = quartiles({2.0, 4.0});
  EXPECT_DOUBLE_EQ(two.q1, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 4.5);
}

TEST(SpanFolding, SelfTimeIsTheSpanMinusItsChildrenSummedByName) {
  std::vector<obs::Tracer> tracers(2);
  for (obs::Tracer& tracer : tracers) {
    for (int i = 0; i < 3; ++i) {
      const obs::Span op(&tracer, "op");
      { const obs::Span place(&tracer, "place"); }
      { const obs::Span protocol(&tracer, "protocol"); }
    }
    const obs::Span outside(&tracer, "problem");
    const obs::Span inner(&tracer, "place");  // same name, other parent
  }
  const auto layers = fold_layers(tracers);
  ASSERT_EQ(layers.size(), 4U);
  EXPECT_EQ(layers.at("op").calls, 6U);
  EXPECT_EQ(layers.at("place").calls, 8U);
  EXPECT_EQ(layers.at("protocol").calls, 6U);
  EXPECT_EQ(layers.at("problem").calls, 2U);
  // Self times partition the top-level spans' time exactly.
  std::uint64_t top_ns = 0;
  for (const obs::Tracer& tracer : tracers) {
    for (const auto& node : tracer.root().children) top_ns += node->total_ns;
  }
  std::uint64_t self_ns = 0;
  for (const auto& [name, total] : layers) self_ns += total.self_ns;
  EXPECT_EQ(self_ns, top_ns);
}

TEST(PoissonSchedule, SameSeedSameScheduleOnEveryRun) {
  const std::vector<double> first = poisson_schedule(1'000.0, 2.0, 42);
  EXPECT_EQ(first, poisson_schedule(1'000.0, 2.0, 42));
  EXPECT_NE(first, poisson_schedule(1'000.0, 2.0, 43));
  ASSERT_FALSE(first.empty());
  EXPECT_GT(first.front(), 0.0);
  EXPECT_LT(first.back(), 2.0);
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_GT(first[i], first[i - 1]);
  }
  // 2,000 arrivals expected; five standard deviations is ~224.
  EXPECT_NEAR(static_cast<double>(first.size()), 2'000.0, 224.0);
  EXPECT_TRUE(poisson_schedule(0.0, 2.0, 42).empty());
}

}  // namespace
}  // namespace rap::bench::e2e
