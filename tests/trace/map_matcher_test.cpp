#include "src/trace/map_matcher.h"

#include <gtest/gtest.h>

#include "src/citygen/grid_city.h"
#include "src/graph/path.h"
#include "tests/testing/builders.h"

namespace rap::trace {
namespace {

std::vector<TraceRecord> records_at(std::initializer_list<geo::Point> points) {
  std::vector<TraceRecord> out;
  double t = 0.0;
  for (const geo::Point& p : points) {
    TraceRecord r;
    r.position = p;
    r.timestamp = t++;
    out.push_back(r);
  }
  return out;
}

TEST(MapMatcher, SnapFindsNearestWithinRadius) {
  const auto net = testing::line_network(5);  // nodes at x = 0..4
  const MapMatcher matcher(net, 0.4);
  EXPECT_EQ(matcher.snap({2.1, 0.1}).value(), 2u);
  EXPECT_EQ(matcher.snap({0.0, 0.0}).value(), 0u);
  EXPECT_FALSE(matcher.snap({2.5, 3.0}).has_value());  // too far
}

TEST(MapMatcher, RejectsBadRadius) {
  const auto net = testing::line_network(3);
  EXPECT_THROW(MapMatcher(net, 0.0), std::invalid_argument);
  EXPECT_THROW(MapMatcher(net, -1.0), std::invalid_argument);
}

TEST(MapMatcher, MatchRunSimplePath) {
  const auto net = testing::line_network(5);
  const MapMatcher matcher(net, 0.4);
  const auto run = records_at({{0.05, 0.0}, {1.1, 0.05}, {2.0, -0.1}, {3.05, 0.0}});
  EXPECT_EQ(matcher.match_run(run), (std::vector<graph::NodeId>{0, 1, 2, 3}));
}

TEST(MapMatcher, CollapsesConsecutiveDuplicates) {
  const auto net = testing::line_network(5);
  const MapMatcher matcher(net, 0.4);
  const auto run = records_at({{1.0, 0.0}, {1.05, 0.0}, {0.95, 0.0}, {2.0, 0.0}});
  EXPECT_EQ(matcher.match_run(run), (std::vector<graph::NodeId>{1, 2}));
}

TEST(MapMatcher, StitchesGapsWithShortestPaths) {
  const auto net = testing::line_network(6);
  const MapMatcher matcher(net, 0.4);
  // Samples only at nodes 0 and 4: the matcher must insert 1, 2, 3.
  const auto run = records_at({{0.0, 0.0}, {4.0, 0.0}});
  EXPECT_EQ(matcher.match_run(run),
            (std::vector<graph::NodeId>{0, 1, 2, 3, 4}));
}

TEST(MapMatcher, SkipsOutliers) {
  const auto net = testing::line_network(5);
  const MapMatcher matcher(net, 0.4);
  // The middle sample is garbage (far off the map) and must be ignored.
  const auto run = records_at({{1.0, 0.0}, {2.5, 50.0}, {2.0, 0.0}});
  EXPECT_EQ(matcher.match_run(run), (std::vector<graph::NodeId>{1, 2}));
}

TEST(MapMatcher, EmptyWhenNothingSnaps) {
  const auto net = testing::line_network(3);
  const MapMatcher matcher(net, 0.2);
  const auto run = records_at({{10.0, 10.0}, {11.0, 10.0}});
  EXPECT_TRUE(matcher.match_run(run).empty());
}

TEST(MapMatcher, EmptyWhenDisconnected) {
  graph::NetworkBuilder builder;
  builder.add_node({0.0, 0.0});
  builder.add_node({10.0, 0.0});  // no edge between them
  const graph::RoadNetwork net = std::move(builder).build();
  const MapMatcher matcher(net, 0.5);
  const auto run = records_at({{0.0, 0.0}, {10.0, 0.0}});
  EXPECT_TRUE(matcher.match_run(run).empty());
}

TEST(MapMatcher, ResultIsAlwaysAWalk) {
  const citygen::GridCity city({6, 6, 100.0, {0.0, 0.0}});
  const MapMatcher matcher(city.network(), 45.0);
  util::Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TraceRecord> run;
    double t = 0.0;
    for (int i = 0; i < 10; ++i) {
      TraceRecord r;
      r.position = {rng.next_double(0.0, 500.0), rng.next_double(0.0, 500.0)};
      r.timestamp = t++;
      run.push_back(r);
    }
    const auto walk = matcher.match_run(run);
    if (!walk.empty()) {
      EXPECT_TRUE(graph::is_walk(city.network(), walk));
    }
  }
}

TEST(MapMatcher, RespectsOneWayStreetsWhenStitching) {
  graph::NetworkBuilder builder;
  const auto a = builder.add_node({0.0, 0.0});
  const auto b = builder.add_node({1.0, 0.0});
  const auto c = builder.add_node({0.5, 1.0});
  builder.add_edge(a, b, 1.0);
  builder.add_edge(b, c, 1.0);
  builder.add_edge(c, a, 1.0);  // one-way triangle
  const graph::RoadNetwork net = std::move(builder).build();
  const MapMatcher matcher(net, 0.3);
  // From b back to a the only route is via c.
  const auto run = records_at({{1.0, 0.0}, {0.0, 0.0}});
  EXPECT_EQ(matcher.match_run(run), (std::vector<graph::NodeId>{b, c, a}));
}

TEST(MapMatcher, EmptyRunMatchesToNothing) {
  const graph::RoadNetwork net = testing::line_network(3);
  const MapMatcher matcher(net, 0.4);
  EXPECT_TRUE(matcher.match_run({}).empty());
}

TEST(MapMatcher, SinglePointRunSnapsToOneIntersection) {
  const graph::RoadNetwork net = testing::line_network(3);
  const MapMatcher matcher(net, 0.4);
  const auto records = records_at({{1.1, 0.05}});
  EXPECT_EQ(matcher.match_run(records),
            (std::vector<graph::NodeId>{1}));
}

TEST(MapMatcher, RunEntirelyOutsideNetworkMatchesToNothing) {
  const graph::RoadNetwork net = testing::line_network(3);
  const MapMatcher matcher(net, 0.4);
  const auto records = records_at({{50.0, 50.0}, {51.0, 50.0}, {52.0, 50.0}});
  EXPECT_TRUE(matcher.match_run(records).empty());
}

}  // namespace
}  // namespace rap::trace
