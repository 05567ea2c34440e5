#include "src/manhattan/flow_class.h"

#include <gtest/gtest.h>

#include "src/citygen/grid_city.h"
#include "tests/testing/builders.h"

namespace rap::manhattan {
namespace {

GridFlow grid_flow(citygen::GridCoord entry, citygen::GridCoord exit) {
  GridFlow flow;
  flow.entry = entry;
  flow.exit = exit;
  flow.daily_vehicles = 1.0;
  return flow;
}

TEST(ClassifyGridFlow, StraightFlows) {
  const GridScenario s(5, 1.0);
  // Horizontal: west edge to east edge on the same row.
  EXPECT_EQ(classify_grid_flow(s, grid_flow({0, 2}, {4, 2})),
            GridFlowClass::kStraight);
  EXPECT_EQ(classify_grid_flow(s, grid_flow({4, 1}, {0, 1})),
            GridFlowClass::kStraight);
  // Vertical: south to north on the same column.
  EXPECT_EQ(classify_grid_flow(s, grid_flow({3, 0}, {3, 4})),
            GridFlowClass::kStraight);
}

TEST(ClassifyGridFlow, TurnedFlows) {
  const GridScenario s(5, 1.0);
  // West edge in, south edge out (like the paper's T(2,4)).
  EXPECT_EQ(classify_grid_flow(s, grid_flow({0, 2}, {2, 0})),
            GridFlowClass::kTurned);
  // North edge in, east edge out.
  EXPECT_EQ(classify_grid_flow(s, grid_flow({1, 4}, {4, 3})),
            GridFlowClass::kTurned);
}

TEST(ClassifyGridFlow, OtherFlows) {
  const GridScenario s(5, 1.0);
  // West edge in, west... east edge out on different rows (the paper's
  // T(3,8) analogue: same orientation, different streets).
  EXPECT_EQ(classify_grid_flow(s, grid_flow({0, 1}, {4, 3})),
            GridFlowClass::kOther);
  // Same (west) edge in and out.
  EXPECT_EQ(classify_grid_flow(s, grid_flow({0, 1}, {0, 3})),
            GridFlowClass::kOther);
}

TEST(ClassifyGridFlow, CornerFlowsLeanTurned) {
  const GridScenario s(5, 1.0);
  // Corner to a vertical edge: readable as turned.
  EXPECT_EQ(classify_grid_flow(s, grid_flow({0, 0}, {2, 4})),
            GridFlowClass::kTurned);
}

TEST(ClassifyGridFlow, CornerToCornerStraightWins) {
  const GridScenario s(5, 1.0);
  // Corner-to-corner along one edge is straight, not turned.
  EXPECT_EQ(classify_grid_flow(s, grid_flow({0, 0}, {4, 0})),
            GridFlowClass::kStraight);
}

TEST(ClassifyGridFlow, RejectsInteriorEndpoints) {
  const GridScenario s(5, 1.0);
  EXPECT_THROW(classify_grid_flow(s, grid_flow({1, 1}, {4, 2})),
               std::invalid_argument);
}

// ---- Network-variant tests on a 9x9 unit grid with a 4x4 region box.

class PathRegion : public ::testing::Test {
 protected:
  PathRegion() : city_({9, 9, 1.0, {0.0, 0.0}}), region_({2.5, 2.5}, {6.5, 6.5}) {}

  std::vector<graph::NodeId> row_path(std::size_t row, std::size_t c0,
                                      std::size_t c1) const {
    std::vector<graph::NodeId> path;
    if (c0 <= c1) {
      for (std::size_t c = c0; c <= c1; ++c) path.push_back(city_.node_at(c, row));
    } else {
      for (std::size_t c = c0 + 1; c-- > c1;) path.push_back(city_.node_at(c, row));
    }
    return path;
  }

  citygen::GridCity city_;
  geo::BBox region_;
};

TEST_F(PathRegion, TransitDetectsCrossing) {
  const auto path = row_path(4, 0, 8);
  const RegionTransit transit =
      region_transit(city_.network(), path, region_);
  EXPECT_TRUE(transit.crosses);
  EXPECT_EQ(transit.entry_edge, RegionEdge::kWest);
  EXPECT_EQ(transit.exit_edge, RegionEdge::kEast);
  EXPECT_NEAR(transit.entry.x, 2.5, 1e-9);
  EXPECT_NEAR(transit.exit.x, 6.5, 1e-9);
}

TEST_F(PathRegion, TransitMissesNonCrossingPath) {
  const auto path = row_path(0, 0, 8);  // south of the region
  EXPECT_FALSE(region_transit(city_.network(), path, region_).crosses);
}

TEST_F(PathRegion, TransitRejectsPathsEndingInside) {
  std::vector<graph::NodeId> path;
  for (std::size_t c = 0; c <= 4; ++c) path.push_back(city_.node_at(c, 4));
  EXPECT_FALSE(region_transit(city_.network(), path, region_).crosses);
}

TEST_F(PathRegion, StraightHorizontal) {
  EXPECT_EQ(classify_path_region(city_.network(), row_path(4, 0, 8), region_,
                                 0.5),
            GridFlowClass::kStraight);
  // Reverse direction too.
  EXPECT_EQ(classify_path_region(city_.network(), row_path(4, 8, 0), region_,
                                 0.5),
            GridFlowClass::kStraight);
}

TEST_F(PathRegion, StraightVertical) {
  std::vector<graph::NodeId> path;
  for (std::size_t r = 0; r <= 8; ++r) path.push_back(city_.node_at(5, r));
  EXPECT_EQ(classify_path_region(city_.network(), path, region_, 0.5),
            GridFlowClass::kStraight);
}

TEST_F(PathRegion, TurnedFlow) {
  // Enter west on row 4, turn north on column 5, exit north.
  std::vector<graph::NodeId> path;
  for (std::size_t c = 0; c <= 5; ++c) path.push_back(city_.node_at(c, 4));
  for (std::size_t r = 5; r <= 8; ++r) path.push_back(city_.node_at(5, r));
  EXPECT_EQ(classify_path_region(city_.network(), path, region_, 0.5),
            GridFlowClass::kTurned);
}

TEST_F(PathRegion, OtherWhenDriftTooLarge) {
  // Enter west on row 3, shift to row 6 inside, exit east: opposite edges
  // but drift 3 > tol.
  std::vector<graph::NodeId> path;
  for (std::size_t c = 0; c <= 4; ++c) path.push_back(city_.node_at(c, 3));
  for (std::size_t r = 4; r <= 6; ++r) path.push_back(city_.node_at(4, r));
  for (std::size_t c = 5; c <= 8; ++c) path.push_back(city_.node_at(c, 6));
  EXPECT_EQ(classify_path_region(city_.network(), path, region_, 0.5),
            GridFlowClass::kOther);
  // A lax tolerance flips it to straight.
  EXPECT_EQ(classify_path_region(city_.network(), path, region_, 5.0),
            GridFlowClass::kStraight);
}

TEST_F(PathRegion, OtherWhenNotCrossing) {
  EXPECT_EQ(classify_path_region(city_.network(), row_path(0, 0, 8), region_,
                                 0.5),
            GridFlowClass::kOther);
}

TEST_F(PathRegion, RejectsNegativeTolerance) {
  EXPECT_THROW(classify_path_region(city_.network(), row_path(4, 0, 8),
                                    region_, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace rap::manhattan
