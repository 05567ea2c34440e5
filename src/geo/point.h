// Planar geometry primitives. Coordinates are in feet to match the paper's
// evaluation (Dublin central area: 80,000 x 80,000 ft; Seattle central area:
// 10,000 x 10,000 ft).
#pragma once

#include <cmath>
#include <compare>

namespace rap::geo {

struct Point {
  double x = 0.0;
  double y = 0.0;

  friend constexpr bool operator==(const Point&, const Point&) = default;

  constexpr Point operator+(const Point& other) const noexcept {
    return {x + other.x, y + other.y};
  }
  constexpr Point operator-(const Point& other) const noexcept {
    return {x - other.x, y - other.y};
  }
  constexpr Point operator*(double scale) const noexcept {
    return {x * scale, y * scale};
  }
};

/// Euclidean (straight-line) distance.
[[nodiscard]] double euclidean_distance(const Point& a, const Point& b) noexcept;

/// Squared Euclidean distance (comparison without the sqrt).
[[nodiscard]] constexpr double squared_distance(const Point& a,
                                                const Point& b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Linear interpolation: t=0 -> a, t=1 -> b (t may lie outside [0,1]).
[[nodiscard]] constexpr Point lerp(const Point& a, const Point& b,
                                   double t) noexcept {
  return {a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
}

/// Midpoint of the segment ab.
[[nodiscard]] constexpr Point midpoint(const Point& a, const Point& b) noexcept {
  return lerp(a, b, 0.5);
}

/// Closest point on segment [a, b] to p, and the distance to it.
struct SegmentProjection {
  Point closest;
  double distance = 0.0;
  double t = 0.0;  ///< Parameter along the segment in [0, 1].
};
[[nodiscard]] SegmentProjection project_onto_segment(const Point& p,
                                                     const Point& a,
                                                     const Point& b) noexcept;

}  // namespace rap::geo
