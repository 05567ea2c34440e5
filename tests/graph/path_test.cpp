#include "src/graph/path.h"

#include <gtest/gtest.h>

#include "src/graph/dijkstra.h"
#include "tests/testing/builders.h"

namespace rap::graph {
namespace {

TEST(IsWalk, ValidWalks) {
  const RoadNetwork net = testing::line_network(4);
  const std::vector<NodeId> path{0, 1, 2, 3};
  const std::vector<NodeId> back_and_forth{1, 2, 1, 0};
  const std::vector<NodeId> single{2};
  EXPECT_TRUE(is_walk(net, path));
  EXPECT_TRUE(is_walk(net, back_and_forth));  // revisiting is a walk
  EXPECT_TRUE(is_walk(net, single));
}

TEST(IsWalk, InvalidWalks) {
  const RoadNetwork net = testing::line_network(4);
  const std::vector<NodeId> skip{0, 2};
  const std::vector<NodeId> bad_node{0, 9};
  const std::vector<NodeId> empty;
  EXPECT_FALSE(is_walk(net, skip));
  EXPECT_FALSE(is_walk(net, bad_node));
  EXPECT_FALSE(is_walk(net, empty));
}

TEST(IsWalk, RespectsDirection) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  builder.add_edge(a, b, 1.0);
  const RoadNetwork net = std::move(builder).build();
  const std::vector<NodeId> forward{a, b};
  const std::vector<NodeId> backward{b, a};
  EXPECT_TRUE(is_walk(net, forward));
  EXPECT_FALSE(is_walk(net, backward));
}

TEST(PathLength, SumsEdges) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  const NodeId c = builder.add_node({2.0, 0.0});
  builder.add_two_way_edge(a, b, 1.5);
  builder.add_two_way_edge(b, c, 2.5);
  const RoadNetwork net = std::move(builder).build();
  const std::vector<NodeId> path{a, b, c};
  EXPECT_DOUBLE_EQ(cumulative_lengths(net, path).back(), 4.0);
}

TEST(PathLength, SingleNodeIsZero) {
  const RoadNetwork net = testing::line_network(2);
  const std::vector<NodeId> single{0};
  EXPECT_DOUBLE_EQ(cumulative_lengths(net, single).back(), 0.0);
}

// One pass checks and sums: anything but a non-empty walk is
// invalid_argument, whichever position holds the bad node.
TEST(PathLength, ThrowsOnNonWalk) {
  const RoadNetwork net = testing::line_network(3);
  for (const std::vector<NodeId>& bad : std::vector<std::vector<NodeId>>{
           {0, 2}, {}, {9}, {9, 0}, {0, 9}, {0, 1, 9}, {0, 1, 0, 2}}) {
    EXPECT_THROW((void)cumulative_lengths(net, bad), std::invalid_argument)
        << bad.size();
  }
}

TEST(PathLength, UsesShortestParallelEdge) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  builder.add_edge(a, b, 5.0);
  builder.add_edge(a, b, 2.0);
  const RoadNetwork net = std::move(builder).build();
  const std::vector<NodeId> path{a, b};
  EXPECT_DOUBLE_EQ(cumulative_lengths(net, path).back(), 2.0);
}

TEST(CumulativeLengths, PrefixSums) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  const NodeId c = builder.add_node({2.0, 0.0});
  builder.add_two_way_edge(a, b, 1.0);
  builder.add_two_way_edge(b, c, 3.0);
  const RoadNetwork net = std::move(builder).build();
  const std::vector<NodeId> path{a, b, c};
  EXPECT_EQ(cumulative_lengths(net, path), (std::vector<double>{0.0, 1.0, 4.0}));
}

TEST(CumulativeLengths, BackEqualsTotal) {
  util::Rng rng(71);
  const RoadNetwork net = testing::random_network(4, 4, 4, rng);
  const auto path = shortest_path(net, 0, static_cast<NodeId>(net.num_nodes() - 1));
  ASSERT_TRUE(path.has_value());
  const auto cum = cumulative_lengths(net, *path);
  EXPECT_DOUBLE_EQ(cum.back(), dijkstra_distance(net, path->front(), path->back()));
  EXPECT_DOUBLE_EQ(cum.front(), 0.0);
}

}  // namespace
}  // namespace rap::graph
