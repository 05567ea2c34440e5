#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace rap::obs {
namespace {

TEST(Counter, StartsAtZeroAndAdds) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, KeepsLastValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
}

TEST(Gauge, TracksWhetherEverSet) {
  Gauge g;
  EXPECT_FALSE(g.has_value());
  g.set(0.0);  // setting the default value still counts as set
  EXPECT_TRUE(g.has_value());
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  // One observation per region: (-inf,1], (1,2], (2,4], (4,inf).
  h.observe(0.5);
  h.observe(1.0);  // exactly on an edge -> that edge's bucket
  h.observe(1.5);
  h.observe(4.0);
  h.observe(5.0);  // overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.stats().min(), 0.5);
  EXPECT_DOUBLE_EQ(h.stats().max(), 5.0);
}

TEST(HistogramTest, NoEdgesMeansSingleOverflowBucket) {
  Histogram h({});
  h.observe(3.0);
  ASSERT_EQ(h.bucket_counts().size(), 1u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
}

TEST(HistogramTest, RejectsNonIncreasingEdges) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, PercentilesFromRetainedSamples) {
  Histogram h({10.0});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_TRUE(h.percentiles_exact());
  EXPECT_NEAR(h.percentile(50.0), 50.5, 1e-12);
  EXPECT_NEAR(h.percentile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(h.percentile(100.0), 100.0, 1e-12);
  EXPECT_THROW(h.percentile(101.0), std::invalid_argument);
  EXPECT_THROW(Histogram({}).percentile(50.0), std::invalid_argument);
}

TEST(HistogramTest, ReservoirCapsAndFlagsInexactPercentiles) {
  Histogram h({});
  for (std::size_t i = 0; i <= Histogram::kMaxRetainedSamples; ++i) {
    h.observe(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), Histogram::kMaxRetainedSamples + 1);
  EXPECT_FALSE(h.percentiles_exact());
  // Still answers, from the uniform reservoir sample of the whole stream.
  EXPECT_GE(h.percentile(50.0), 0.0);
}

TEST(HistogramTest, ReservoirCoversTheWholeStreamNotAPrefix) {
  // Regression: the old policy kept the first kMaxRetainedSamples values,
  // so past the cap percentiles ignored the tail entirely. Algorithm R
  // keeps a uniform sample, so the median of 0..4N-1 must land near the
  // true middle, far above the prefix median.
  Histogram h({});
  const auto n = static_cast<double>(Histogram::kMaxRetainedSamples);
  for (double x = 0.0; x < 4.0 * n; x += 1.0) h.observe(x);
  EXPECT_FALSE(h.percentiles_exact());
  const double median = h.percentile(50.0);
  EXPECT_GT(median, 1.5 * n);  // a retained prefix would answer ~n/2
  EXPECT_LT(median, 2.5 * n);
}

TEST(HistogramTest, ReservoirSamplingIsDeterministic) {
  const auto run = [] {
    Histogram h({});
    for (int i = 0; i < 3 * static_cast<int>(Histogram::kMaxRetainedSamples);
         ++i) {
      h.observe(static_cast<double>(i % 977));
    }
    return h;
  };
  const Histogram a = run();
  const Histogram b = run();
  for (const double q : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    EXPECT_EQ(a.percentile(q), b.percentile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, PercentileQueriesDoNotPerturbTheReservoir) {
  // percentile() sorts a copy; a mid-stream query must not change which
  // samples later observations replace.
  const auto run = [](bool query_mid_stream) {
    Histogram h({});
    const int total = 3 * static_cast<int>(Histogram::kMaxRetainedSamples);
    for (int i = 0; i < total; ++i) {
      h.observe(static_cast<double>((i * 31) % 1009));
      if (query_mid_stream && i == total / 2) (void)h.percentile(50.0);
    }
    return h.percentile(50.0);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(HistogramTest, MergeAddsBucketsAndMoments) {
  Histogram a({2.0});
  Histogram b({2.0});
  a.observe(1.0);
  b.observe(3.0);
  b.observe(1.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bucket_counts()[0], 2u);
  EXPECT_EQ(a.bucket_counts()[1], 1u);
  EXPECT_DOUBLE_EQ(a.stats().min(), 1.0);
  EXPECT_DOUBLE_EQ(a.stats().max(), 3.0);
  EXPECT_NEAR(a.percentile(50.0), 1.5, 1e-12);
}

TEST(HistogramTest, MergeRejectsMismatchedEdges) {
  Histogram a({1.0});
  Histogram b({2.0});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(MetricsRegistryTest, FindOrCreateReturnsStableMetrics) {
  MetricsRegistry registry;
  Counter& c = registry.counter("x");
  c.add(3);
  registry.counter("y").add(1);  // later insertions must not invalidate c
  EXPECT_EQ(registry.counter("x").value(), 3u);
  EXPECT_EQ(&registry.counter("x"), &c);
  EXPECT_FALSE(registry.empty());
}

TEST(MetricsRegistryTest, HistogramEdgesFixedAtCreation) {
  MetricsRegistry registry;
  registry.histogram("h", {1.0, 2.0});
  // A second lookup with different edges keeps the original ones.
  EXPECT_EQ(registry.histogram("h", {5.0}).upper_edges().size(), 2u);
}

TEST(MetricsRegistryTest, MergeCombinesAllKinds) {
  MetricsRegistry a;
  a.counter("shared").add(1);
  a.gauge("g").set(1.0);
  a.histogram("h", {10.0}).observe(1.0);

  MetricsRegistry b;
  b.counter("shared").add(2);
  b.counter("only_b").add(7);
  b.gauge("g").set(5.0);
  b.histogram("h", {10.0}).observe(2.0);
  b.histogram("h2", {}).observe(3.0);

  a.merge(b);
  EXPECT_EQ(a.counters().at("shared").value(), 3u);
  EXPECT_EQ(a.counters().at("only_b").value(), 7u);
  EXPECT_EQ(a.gauges().at("g").value(), 5.0);  // gauges overwrite
  EXPECT_EQ(a.histograms().at("h").count(), 2u);
  EXPECT_EQ(a.histograms().at("h2").count(), 1u);
}

TEST(MetricsRegistryTest, MergeSkipsGaugesThatWereNeverSet) {
  // Regression: gauge("name") materializes an unset gauge (value 0.0), and
  // merge used to copy that 0.0 over a real reading. Only set gauges may
  // overwrite.
  MetricsRegistry a;
  a.gauge("depth").set(3.0);

  MetricsRegistry b;
  (void)b.gauge("depth");  // materialized but never set
  (void)b.gauge("fresh");  // unset, new to a

  a.merge(b);
  EXPECT_EQ(a.gauges().at("depth").value(), 3.0);
  EXPECT_TRUE(a.gauges().at("depth").has_value());
  // The name still transfers, still marked unset.
  EXPECT_FALSE(a.gauges().at("fresh").has_value());

  // And a set gauge on the right side does overwrite an unset left one.
  MetricsRegistry c;
  (void)c.gauge("depth");
  c.merge(a);
  EXPECT_TRUE(c.gauges().at("depth").has_value());
  EXPECT_EQ(c.gauges().at("depth").value(), 3.0);
}

TEST(MetricsRegistryTest, MergeMatchesSequentialObservation) {
  // The registry must merge like RunningStats: split stream == full stream.
  MetricsRegistry whole;
  MetricsRegistry left;
  MetricsRegistry right;
  const std::vector<double> data{1.0, 8.0, 2.5, -3.0, 7.5, 0.5};
  for (std::size_t i = 0; i < data.size(); ++i) {
    whole.histogram("h", {0.0, 5.0}).observe(data[i]);
    (i < 3 ? left : right).histogram("h", {0.0, 5.0}).observe(data[i]);
  }
  left.merge(right);
  const Histogram& merged = left.histograms().at("h");
  const Histogram& full = whole.histograms().at("h");
  EXPECT_EQ(merged.count(), full.count());
  EXPECT_NEAR(merged.stats().mean(), full.stats().mean(), 1e-12);
  EXPECT_NEAR(merged.stats().variance(), full.stats().variance(), 1e-12);
  for (std::size_t i = 0; i < full.bucket_counts().size(); ++i) {
    EXPECT_EQ(merged.bucket_counts()[i], full.bucket_counts()[i]);
  }
  EXPECT_DOUBLE_EQ(merged.percentile(50.0), full.percentile(50.0));
}

}  // namespace
}  // namespace rap::obs
