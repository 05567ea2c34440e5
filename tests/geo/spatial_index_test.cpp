#include "src/geo/spatial_index.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "src/util/rng.h"

namespace rap::geo {
namespace {

std::vector<Point> random_points(std::size_t count, util::Rng& rng,
                                 double extent) {
  std::vector<Point> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back({rng.next_double(0.0, extent), rng.next_double(0.0, extent)});
  }
  return points;
}

std::size_t brute_force_nearest(const std::vector<Point>& points,
                                const Point& query) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = squared_distance(points[i], query);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

TEST(SpatialIndex, EmptySetReturnsNothing) {
  const SpatialIndex index(std::vector<Point>{}, 1.0);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.nearest({0.0, 0.0}).has_value());
}

TEST(SpatialIndex, SinglePoint) {
  const std::vector<Point> points{{5.0, 5.0}};
  const SpatialIndex index(points, 1.0);
  EXPECT_EQ(index.nearest({0.0, 0.0}).value(), 0u);
}

TEST(SpatialIndex, RejectsBadCellSize) {
  const std::vector<Point> points{{0.0, 0.0}};
  EXPECT_THROW(SpatialIndex(points, 0.0), std::invalid_argument);
  EXPECT_THROW(SpatialIndex(points, -1.0), std::invalid_argument);
}

TEST(SpatialIndex, NearestMatchesBruteForce) {
  util::Rng rng(101);
  const auto points = random_points(300, rng, 100.0);
  const SpatialIndex index(points, 7.0);
  for (int q = 0; q < 200; ++q) {
    const Point query{rng.next_double(-10.0, 110.0),
                      rng.next_double(-10.0, 110.0)};
    const auto got = index.nearest(query);
    ASSERT_TRUE(got.has_value());
    // Equal-distance ties could differ in index; compare distances.
    EXPECT_DOUBLE_EQ(
        euclidean_distance(points[*got], query),
        euclidean_distance(points[brute_force_nearest(points, query)], query));
  }
}

TEST(SpatialIndex, NearestWithinRespectsRadius) {
  const std::vector<Point> points{{0.0, 0.0}, {10.0, 0.0}};
  const SpatialIndex index(points, 2.0);
  EXPECT_EQ(index.nearest_within({1.0, 0.0}, 2.0).value(), 0u);
  EXPECT_FALSE(index.nearest_within({5.0, 0.0}, 1.0).has_value());
}

TEST(SpatialIndex, FarQueryStillFindsNearest) {
  const std::vector<Point> points{{0.0, 0.0}, {100.0, 100.0}};
  const SpatialIndex index(points, 1.0);
  EXPECT_EQ(index.nearest({1000.0, 1000.0}).value(), 1u);
  EXPECT_EQ(index.nearest({-1000.0, -1000.0}).value(), 0u);
}

// nearest_within scans only the rings its radius reaches. On random sets,
// with radii below, at and above the cell size and queries both inside the
// points' bounds and far outside them, it must answer what the unbounded
// nearest() filtered by the radius answers, and what a brute-force scan
// (lowest index among equal distances) answers.
TEST(SpatialIndex, NearestWithinMatchesFilteredNearestAndBruteForce) {
  util::Rng rng(7);
  std::size_t found = 0;
  std::size_t missed = 0;
  for (int set = 0; set < 12; ++set) {
    const auto points = random_points(1 + rng.next_below(400), rng, 100.0);
    const double cell = rng.next_double(0.5, 20.0);
    const SpatialIndex index(points, cell);
    for (int q = 0; q < 400; ++q) {
      const double reach = q % 4 == 0 ? 1'000.0 : 20.0;
      const Point query{rng.next_double(-reach, 100.0 + reach),
                        rng.next_double(-reach, 100.0 + reach)};
      const double radius = cell * rng.next_double(0.1, 3.5);
      const auto got = index.nearest_within(query, radius);

      std::optional<std::size_t> filtered = index.nearest(query);
      if (euclidean_distance(points[*filtered], query) > radius) {
        filtered.reset();
      }
      std::optional<std::size_t> brute = brute_force_nearest(points, query);
      if (euclidean_distance(points[*brute], query) > radius) brute.reset();

      EXPECT_EQ(got, filtered) << "set " << set << " query " << q;
      EXPECT_EQ(got, brute) << "set " << set << " query " << q;
      ++(got ? found : missed);
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(found, 500u);
  EXPECT_GT(missed, 500u);
}

TEST(SpatialIndex, NearestWithinEdgeRadii) {
  const std::vector<Point> points{{0.0, 0.0}, {10.0, 0.0}};
  const SpatialIndex index(points, 1.0);
  EXPECT_FALSE(index.nearest_within({0.0, 0.0}, -1.0).has_value());
  EXPECT_EQ(index.nearest_within({0.0, 0.0}, 0.0), 0u);
  EXPECT_EQ(index.nearest_within({1e6, 0.0}, 1e300), 1u);
  EXPECT_EQ(index.nearest_within({9.0, 0.0},
                                 std::numeric_limits<double>::infinity()),
            1u);
  const SpatialIndex empty(std::vector<Point>{}, 1.0);
  EXPECT_FALSE(empty.nearest_within({0.0, 0.0}, 5.0).has_value());
}

}  // namespace
}  // namespace rap::geo
