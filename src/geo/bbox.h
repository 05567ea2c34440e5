// Axis-aligned bounding boxes. Used for the paper's D x D placement square
// around the shop (the Random baseline and the Manhattan region) and for the
// Manhattan bounding-rectangle shortest-path test.
#pragma once

#include "src/geo/point.h"

namespace rap::geo {

class BBox {
 public:
  /// Empty box: contains nothing until expanded.
  constexpr BBox() noexcept = default;

  /// Box spanning the two corner points (any orientation).
  BBox(const Point& a, const Point& b) noexcept;

  /// Square of side `side` centred at `center`. Throws if side < 0.
  [[nodiscard]] static BBox centered_square(const Point& center, double side);

  [[nodiscard]] constexpr bool empty() const noexcept { return min_.x > max_.x; }
  [[nodiscard]] constexpr Point min() const noexcept { return min_; }
  [[nodiscard]] constexpr Point max() const noexcept { return max_; }
  [[nodiscard]] Point center() const noexcept;
  [[nodiscard]] double width() const noexcept;
  [[nodiscard]] double height() const noexcept;

  /// Closed containment test (boundary points are inside).
  [[nodiscard]] bool contains(const Point& p) const noexcept;

  /// Grows the box to include p.
  void expand(const Point& p) noexcept;

 private:
  Point min_{1.0, 1.0};
  Point max_{-1.0, -1.0};  // min > max encodes "empty"
};

}  // namespace rap::geo
