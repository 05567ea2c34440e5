#include "src/graph/road_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "tests/testing/builders.h"

namespace rap::graph {
namespace {

TEST(RoadNetwork, StartsEmpty) {
  const RoadNetwork net;
  EXPECT_EQ(net.num_nodes(), 0u);
  EXPECT_EQ(net.num_edges(), 0u);
  EXPECT_TRUE(net.bounds().empty());
}

TEST(RoadNetwork, AddNodeAssignsDenseIds) {
  NetworkBuilder builder;
  EXPECT_EQ(builder.add_node({0.0, 0.0}), 0u);
  EXPECT_EQ(builder.add_node({1.0, 0.0}), 1u);
  const RoadNetwork net = std::move(builder).build();
  EXPECT_EQ(net.num_nodes(), 2u);
  EXPECT_EQ(net.position(1), (geo::Point{1.0, 0.0}));
}

TEST(RoadNetwork, PositionValidatesId) {
  NetworkBuilder builder;
  builder.add_node({0.0, 0.0});
  const RoadNetwork net = std::move(builder).build();
  EXPECT_THROW(net.position(1), std::out_of_range);
  EXPECT_THROW(net.position(kInvalidNode), std::out_of_range);
}

TEST(RoadNetwork, AddEdgeValidation) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  EXPECT_THROW(builder.add_edge(a, a, 1.0), std::invalid_argument);  // loop
  EXPECT_THROW(builder.add_edge(a, 5, 1.0), std::out_of_range);
  EXPECT_THROW(builder.add_edge(a, b, 0.0), std::invalid_argument);
  EXPECT_THROW(builder.add_edge(a, b, -1.0), std::invalid_argument);
  EXPECT_THROW(
      builder.add_edge(a, b, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
}

TEST(RoadNetwork, AddNodeRejectsNonFiniteCoordinates) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  NetworkBuilder builder;
  for (const double bad : {kNan, kInf, -kInf}) {
    EXPECT_THROW(builder.add_node({bad, 0.0}), std::invalid_argument);
    EXPECT_THROW(builder.add_node({0.0, bad}), std::invalid_argument);
  }
  EXPECT_EQ(builder.num_nodes(), 0u);  // a rejected node is not added
}

TEST(RoadNetwork, OneWayEdgeIsDirected) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  builder.add_edge(a, b, 2.0);
  const RoadNetwork net = std::move(builder).build();
  EXPECT_EQ(net.out_edges(a).size(), 1u);
  EXPECT_EQ(net.in_edges(a).size(), 0u);
  EXPECT_EQ(net.out_edges(b).size(), 0u);
  EXPECT_EQ(net.in_edges(b).size(), 1u);
}

TEST(RoadNetwork, TwoWayEdgeAddsBothDirections) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  const EdgeId forward = builder.add_two_way_edge(a, b, 2.0);
  const RoadNetwork net = std::move(builder).build();
  EXPECT_EQ(net.num_edges(), 2u);
  EXPECT_EQ(net.edge(forward).from, a);
  EXPECT_EQ(net.edge(forward + 1).from, b);
  EXPECT_EQ(net.edge(forward).length, 2.0);
}

TEST(RoadNetwork, AdjacencySurvivesMutation) {
  // The adjacency is complete straight out of build(), and copies and moves
  // carry it along: every node's out and in lists hold exactly the edges
  // that leave and enter it, in ascending id order.
  NetworkBuilder builder;
  for (int i = 0; i < 5; ++i) builder.add_node({static_cast<double>(i), 0.0});
  builder.add_two_way_edge(0, 1, 1.0);
  builder.add_edge(1, 2, 1.0);
  builder.add_two_way_edge(2, 3, 2.0);
  builder.add_edge(3, 0, 1.5);
  builder.add_edge(0, 2, 3.0);
  builder.add_two_way_edge(1, 3, 1.0);
  const RoadNetwork net = std::move(builder).build();
  const auto expect_complete = [](const RoadNetwork& g) {
    ASSERT_EQ(g.num_nodes(), 5u);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      std::vector<EdgeId> out;
      std::vector<EdgeId> in;
      for (EdgeId id = 0; id < g.num_edges(); ++id) {
        if (g.edge(id).from == v) out.push_back(id);
        if (g.edge(id).to == v) in.push_back(id);
      }
      std::vector<EdgeId> out_ids;
      for (const OutEdge& e : g.out_edges(v)) {
        out_ids.push_back(e.id);
        EXPECT_EQ(e.to, g.edge(e.id).to);
      }
      const auto in_edges = g.in_edges(v);
      EXPECT_EQ(out_ids, out);
      EXPECT_EQ(std::vector<EdgeId>(in_edges.begin(), in_edges.end()), in);
    }
  };
  expect_complete(net);
  RoadNetwork copy = net;
  expect_complete(copy);
  const RoadNetwork moved = std::move(copy);
  expect_complete(moved);
  RoadNetwork assigned;
  assigned = moved;
  expect_complete(assigned);
  RoadNetwork move_assigned;
  move_assigned = std::move(assigned);
  expect_complete(move_assigned);
}

TEST(RoadNetwork, OutEdgesContent) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  const NodeId c = builder.add_node({2.0, 0.0});
  builder.add_edge(a, b, 1.0);
  builder.add_edge(a, c, 2.0);
  const RoadNetwork net = std::move(builder).build();
  std::vector<NodeId> targets;
  for (const OutEdge& e : net.out_edges(a)) targets.push_back(e.to);
  std::sort(targets.begin(), targets.end());
  EXPECT_EQ(targets, (std::vector<NodeId>{b, c}));
}

TEST(RoadNetwork, EdgeLookupValidates) {
  RoadNetwork net;
  EXPECT_THROW(net.edge(0), std::out_of_range);
}

TEST(RoadNetwork, BoundsCoverAllNodes) {
  NetworkBuilder builder;
  builder.add_node({-1.0, 5.0});
  builder.add_node({3.0, -2.0});
  const RoadNetwork net = std::move(builder).build();
  const geo::BBox box = net.bounds();
  EXPECT_EQ(box.min(), (geo::Point{-1.0, -2.0}));
  EXPECT_EQ(box.max(), (geo::Point{3.0, 5.0}));
}

TEST(RoadNetwork, StrongConnectivityTwoWay) {
  const RoadNetwork net = testing::line_network(5);
  EXPECT_TRUE(net.is_strongly_connected());
}

TEST(RoadNetwork, StrongConnectivityFailsOneWayChain) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  builder.add_edge(a, b, 1.0);  // no way back
  const RoadNetwork net = std::move(builder).build();
  EXPECT_FALSE(net.is_strongly_connected());
}

TEST(RoadNetwork, OneWayCycleIsStronglyConnected) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  const NodeId c = builder.add_node({0.5, 1.0});
  builder.add_edge(a, b, 1.0);
  builder.add_edge(b, c, 1.0);
  builder.add_edge(c, a, 1.0);
  const RoadNetwork net = std::move(builder).build();
  EXPECT_TRUE(net.is_strongly_connected());
}

TEST(RoadNetwork, EmptyAndSingletonAreStronglyConnected) {
  const RoadNetwork empty;
  EXPECT_TRUE(empty.is_strongly_connected());
  NetworkBuilder builder;
  builder.add_node({0.0, 0.0});
  const RoadNetwork singleton = std::move(builder).build();
  EXPECT_TRUE(singleton.is_strongly_connected());
}

TEST(RoadNetwork, LargestSccPicksBiggestComponent) {
  NetworkBuilder builder;
  // Component 1: 3-cycle. Component 2: 2-node two-way. Bridge: one-way only.
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  const NodeId c = builder.add_node({0.5, 1.0});
  const NodeId d = builder.add_node({5.0, 0.0});
  const NodeId e = builder.add_node({6.0, 0.0});
  builder.add_edge(a, b, 1.0);
  builder.add_edge(b, c, 1.0);
  builder.add_edge(c, a, 1.0);
  builder.add_two_way_edge(d, e, 1.0);
  builder.add_edge(a, d, 1.0);  // one-way bridge keeps components separate
  const RoadNetwork net = std::move(builder).build();
  std::vector<NodeId> scc = net.largest_scc();
  std::sort(scc.begin(), scc.end());
  EXPECT_EQ(scc, (std::vector<NodeId>{a, b, c}));
}

TEST(RoadNetwork, LargestSccOfConnectedGraphIsEverything) {
  const RoadNetwork net = testing::line_network(7);
  EXPECT_EQ(net.largest_scc().size(), 7u);
}

TEST(RoadNetwork, LargestSccEmptyGraph) {
  const RoadNetwork net;
  EXPECT_TRUE(net.largest_scc().empty());
}

TEST(RoadNetwork, ParallelEdgesAllowed) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  builder.add_edge(a, b, 1.0);
  builder.add_edge(a, b, 2.0);
  const RoadNetwork net = std::move(builder).build();
  EXPECT_EQ(net.out_edges(a).size(), 2u);
}

TEST(RoadNetwork, DeepGraphSccDoesNotOverflowStack) {
  // 20k-node one-way cycle: recursive Tarjan would blow the stack.
  NetworkBuilder builder;
  constexpr std::size_t kN = 20'000;
  for (std::size_t i = 0; i < kN; ++i) {
    builder.add_node({static_cast<double>(i), 0.0});
  }
  for (std::size_t i = 0; i < kN; ++i) {
    builder.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % kN),
                     1.0);
  }
  const RoadNetwork net = std::move(builder).build();
  EXPECT_TRUE(net.is_strongly_connected());
}

}  // namespace
}  // namespace rap::graph
