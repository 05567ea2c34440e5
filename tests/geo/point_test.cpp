#include "src/geo/point.h"

#include <gtest/gtest.h>

namespace rap::geo {
namespace {

TEST(Point, Arithmetic) {
  const Point a{1.0, 2.0};
  const Point b{3.0, -1.0};
  EXPECT_EQ(a + b, (Point{4.0, 1.0}));
  EXPECT_EQ(a - b, (Point{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0}));
}

TEST(Distances, Euclidean345) {
  EXPECT_DOUBLE_EQ(euclidean_distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(euclidean_distance({1.0, 1.0}, {1.0, 1.0}), 0.0);
}

TEST(Distances, SquaredMatchesEuclidean) {
  const Point a{1.0, 2.0};
  const Point b{4.0, 6.0};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
}

TEST(Lerp, EndpointsAndMidpoint) {
  const Point a{0.0, 0.0};
  const Point b{10.0, 20.0};
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
  EXPECT_EQ(lerp(a, b, 0.5), (Point{5.0, 10.0}));
  EXPECT_EQ(midpoint(a, b), (Point{5.0, 10.0}));
}

TEST(Lerp, Extrapolates) {
  EXPECT_EQ(lerp({0.0, 0.0}, {1.0, 1.0}, 2.0), (Point{2.0, 2.0}));
}

TEST(ProjectOntoSegment, InteriorPoint) {
  const auto p = project_onto_segment({5.0, 3.0}, {0.0, 0.0}, {10.0, 0.0});
  EXPECT_EQ(p.closest, (Point{5.0, 0.0}));
  EXPECT_DOUBLE_EQ(p.distance, 3.0);
  EXPECT_DOUBLE_EQ(p.t, 0.5);
}

TEST(ProjectOntoSegment, ClampsToEndpoints) {
  const auto before = project_onto_segment({-5.0, 0.0}, {0.0, 0.0}, {10.0, 0.0});
  EXPECT_EQ(before.closest, (Point{0.0, 0.0}));
  EXPECT_DOUBLE_EQ(before.t, 0.0);
  const auto after = project_onto_segment({15.0, 0.0}, {0.0, 0.0}, {10.0, 0.0});
  EXPECT_EQ(after.closest, (Point{10.0, 0.0}));
  EXPECT_DOUBLE_EQ(after.t, 1.0);
}

TEST(ProjectOntoSegment, DegenerateSegment) {
  const auto p = project_onto_segment({3.0, 4.0}, {0.0, 0.0}, {0.0, 0.0});
  EXPECT_EQ(p.closest, (Point{0.0, 0.0}));
  EXPECT_DOUBLE_EQ(p.distance, 5.0);
}

}  // namespace
}  // namespace rap::geo
