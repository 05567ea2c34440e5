#include "src/geo/point.h"

#include <algorithm>

namespace rap::geo {

double euclidean_distance(const Point& a, const Point& b) noexcept {
  return std::hypot(a.x - b.x, a.y - b.y);
}

SegmentProjection project_onto_segment(const Point& p, const Point& a,
                                       const Point& b) noexcept {
  const double len2 = squared_distance(a, b);
  SegmentProjection out;
  if (len2 == 0.0) {
    out.closest = a;
    out.t = 0.0;
  } else {
    const double t =
        ((p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)) / len2;
    out.t = std::clamp(t, 0.0, 1.0);
    out.closest = lerp(a, b, out.t);
  }
  out.distance = euclidean_distance(p, out.closest);
  return out;
}

}  // namespace rap::geo
