#include "src/citygen/grid_city.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/graph/dijkstra.h"

namespace rap::citygen {
namespace {

TEST(GridCity, NodeAndEdgeCounts) {
  const GridCity city({4, 3, 1.0, {0.0, 0.0}});
  EXPECT_EQ(city.network().num_nodes(), 12u);
  // Horizontal segments: 3*3=9, vertical: 4*2=8; two directed edges each.
  EXPECT_EQ(city.network().num_edges(), 2u * (9u + 8u));
}

TEST(GridCity, RejectsDegenerateSpecs) {
  EXPECT_THROW(GridCity({1, 3, 1.0, {0.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(GridCity({3, 1, 1.0, {0.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(GridCity({3, 3, 0.0, {0.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(GridCity({3, 3, -1.0, {0.0, 0.0}}), std::invalid_argument);
}

TEST(GridCity, PositionsMatchSpec) {
  const GridCity city({3, 3, 100.0, {10.0, 20.0}});
  EXPECT_EQ(city.network().position(city.node_at(0, 0)),
            (geo::Point{10.0, 20.0}));
  EXPECT_EQ(city.network().position(city.node_at(2, 1)),
            (geo::Point{210.0, 120.0}));
}

TEST(GridCity, CoordRoundTrip) {
  const GridCity city({5, 4, 1.0, {0.0, 0.0}});
  for (std::size_t row = 0; row < 4; ++row) {
    for (std::size_t col = 0; col < 5; ++col) {
      const GridCoord coord{col, row};
      EXPECT_EQ(city.coord_of(city.node_at(coord)), coord);
    }
  }
}

TEST(GridCity, NodeAtValidates) {
  const GridCity city({3, 3, 1.0, {0.0, 0.0}});
  EXPECT_THROW(city.node_at(3, 0), std::out_of_range);
  EXPECT_THROW(city.node_at(0, 3), std::out_of_range);
}

TEST(GridCity, IsStronglyConnected) {
  const GridCity city({6, 5, 1.0, {0.0, 0.0}});
  EXPECT_TRUE(city.network().is_strongly_connected());
}

TEST(GridCity, GraphDistanceEqualsManhattanDistance) {
  const GridCity city({5, 5, 2.0, {0.0, 0.0}});
  const graph::ShortestPathTree tree =
      graph::dijkstra(city.network(), city.node_at(1, 2));
  for (std::size_t row = 0; row < 5; ++row) {
    for (std::size_t col = 0; col < 5; ++col) {
      const double blocks =
          std::abs(static_cast<double>(col) - 1.0) +
          std::abs(static_cast<double>(row) - 2.0);
      EXPECT_DOUBLE_EQ(tree.distance(city.node_at(col, row)), 2.0 * blocks);
    }
  }
}

TEST(GridCity, CenterNodeOfOddGrid) {
  const GridCity city({5, 5, 1.0, {0.0, 0.0}});
  EXPECT_EQ(city.coord_of(city.center_node()), (GridCoord{2, 2}));
}

TEST(GridCity, AllEdgesHaveSpacingLength) {
  const GridCity city({4, 4, 7.5, {0.0, 0.0}});
  for (const graph::Edge& e : city.network().edges()) {
    EXPECT_DOUBLE_EQ(e.length, 7.5);
  }
}

}  // namespace
}  // namespace rap::citygen
