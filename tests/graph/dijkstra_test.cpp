#include "src/graph/dijkstra.h"

#include <gtest/gtest.h>

#include "src/graph/path.h"
#include "tests/testing/builders.h"

namespace rap::graph {
namespace {

TEST(Dijkstra, LineDistances) {
  const RoadNetwork net = testing::line_network(5);
  const ShortestPathTree tree = dijkstra(net, 0);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(tree.distance(v), static_cast<double>(v));
  }
}

TEST(Dijkstra, SourceDistanceIsZero) {
  const RoadNetwork net = testing::line_network(3);
  EXPECT_DOUBLE_EQ(dijkstra(net, 1).distance(1), 0.0);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  NetworkBuilder builder;
  builder.add_node({0.0, 0.0});
  builder.add_node({1.0, 0.0});
  const RoadNetwork net = std::move(builder).build();
  const ShortestPathTree tree = dijkstra(net, 0);
  EXPECT_EQ(tree.distance(1), kUnreachable);
  EXPECT_FALSE(tree.reachable(1));
  EXPECT_FALSE(tree.path_to(1).has_value());
}

TEST(Dijkstra, RespectsEdgeDirection) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  builder.add_edge(a, b, 1.0);
  const RoadNetwork net = std::move(builder).build();
  EXPECT_DOUBLE_EQ(dijkstra(net, a).distance(b), 1.0);
  EXPECT_EQ(dijkstra(net, b).distance(a), kUnreachable);
}

TEST(Dijkstra, ReverseModeGivesDistanceToSource) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  const NodeId c = builder.add_node({2.0, 0.0});
  builder.add_edge(a, b, 1.0);
  builder.add_edge(b, c, 2.0);
  const RoadNetwork net = std::move(builder).build();
  const ShortestPathTree to_c = dijkstra(net, c, Direction::kReverse);
  EXPECT_DOUBLE_EQ(to_c.distance(a), 3.0);
  EXPECT_DOUBLE_EQ(to_c.distance(b), 2.0);
  EXPECT_DOUBLE_EQ(to_c.distance(c), 0.0);
}

TEST(Dijkstra, PicksShorterOfTwoRoutes) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  const NodeId c = builder.add_node({0.5, 1.0});
  builder.add_two_way_edge(a, b, 10.0);
  builder.add_two_way_edge(a, c, 2.0);
  builder.add_two_way_edge(c, b, 3.0);
  const RoadNetwork net = std::move(builder).build();
  EXPECT_DOUBLE_EQ(dijkstra(net, a).distance(b), 5.0);
}

TEST(Dijkstra, ForwardPathIsInTravelOrder) {
  const RoadNetwork net = testing::line_network(4);
  const auto path = dijkstra(net, 0).path_to(3);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Dijkstra, ReversePathIsInTravelOrder) {
  const RoadNetwork net = testing::line_network(4);
  const auto path = dijkstra(net, 3, Direction::kReverse).path_to(0);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<NodeId>{0, 1, 2, 3}));  // travel 0 -> 3
}

TEST(Dijkstra, PathToSourceIsSingleton) {
  const RoadNetwork net = testing::line_network(3);
  const auto path = dijkstra(net, 1).path_to(1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, std::vector<NodeId>{1});
}

TEST(Dijkstra, BadSourceThrows) {
  const RoadNetwork net = testing::line_network(3);
  EXPECT_THROW(dijkstra(net, 3), std::out_of_range);
}

TEST(Dijkstra, DistanceQueryValidates) {
  const RoadNetwork net = testing::line_network(3);
  const ShortestPathTree tree = dijkstra(net, 0);
  EXPECT_THROW(tree.distance(7), std::out_of_range);
}

TEST(DijkstraDistance, PointToPoint) {
  const RoadNetwork net = testing::line_network(6);
  EXPECT_DOUBLE_EQ(dijkstra_distance(net, 1, 4), 3.0);
  EXPECT_DOUBLE_EQ(dijkstra_distance(net, 4, 4), 0.0);
}

TEST(DijkstraDistance, ValidatesTarget) {
  const RoadNetwork net = testing::line_network(3);
  EXPECT_THROW(dijkstra_distance(net, 0, 9), std::out_of_range);
}

TEST(ShortestPathFn, ReturnsOptimalWalk) {
  util::Rng rng(211);
  const RoadNetwork net = testing::random_network(5, 5, 6, rng);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = static_cast<NodeId>(rng.next_below(net.num_nodes()));
    const auto b = static_cast<NodeId>(rng.next_below(net.num_nodes()));
    const auto path = shortest_path(net, a, b);
    ASSERT_TRUE(path.has_value());
    EXPECT_TRUE(is_walk(net, *path));
    EXPECT_NEAR(cumulative_lengths(net, *path).back(),
                dijkstra_distance(net, a, b), 1e-9);
  }
}

TEST(ShortestPathFn, NulloptWhenDisconnected) {
  NetworkBuilder builder;
  builder.add_node({0.0, 0.0});
  builder.add_node({1.0, 0.0});
  const RoadNetwork net = std::move(builder).build();
  EXPECT_FALSE(shortest_path(net, 0, 1).has_value());
}

// Property: Dijkstra agrees with the Floyd–Warshall oracle on random graphs.
class DijkstraVsOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraVsOracle, AllPairsMatch) {
  util::Rng rng(GetParam());
  const RoadNetwork net = testing::random_network(
      3 + rng.next_below(3), 3 + rng.next_below(3), rng.next_below(8), rng);
  const std::vector<std::vector<double>> oracle = floyd_warshall(net);
  for (NodeId s = 0; s < net.num_nodes(); ++s) {
    const ShortestPathTree tree = dijkstra(net, s);
    for (NodeId t = 0; t < net.num_nodes(); ++t) {
      EXPECT_NEAR(tree.distance(t), oracle[s][t], 1e-9)
          << "s=" << s << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DijkstraVsOracle,
                         ::testing::Range<std::uint64_t>(0, 12));

// Property: triangle inequality of the shortest-path metric.
class DijkstraMetric : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraMetric, TriangleInequality) {
  util::Rng rng(GetParam() + 500);
  const RoadNetwork net = testing::random_network(4, 4, 5, rng);
  const std::vector<std::vector<double>> dist = floyd_warshall(net);
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    for (NodeId j = 0; j < net.num_nodes(); ++j) {
      for (NodeId k = 0; k < net.num_nodes(); ++k) {
        EXPECT_LE(dist[i][j], dist[i][k] + dist[k][j] + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DijkstraMetric,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace rap::graph
