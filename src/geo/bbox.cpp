#include "src/geo/bbox.h"

#include <algorithm>
#include <stdexcept>

namespace rap::geo {

BBox::BBox(const Point& a, const Point& b) noexcept
    : min_{std::min(a.x, b.x), std::min(a.y, b.y)},
      max_{std::max(a.x, b.x), std::max(a.y, b.y)} {}

BBox BBox::centered_square(const Point& center, double side) {
  if (side < 0.0) {
    throw std::invalid_argument("BBox::centered_square: side must be >= 0");
  }
  const double half = side / 2.0;
  return BBox({center.x - half, center.y - half},
              {center.x + half, center.y + half});
}

Point BBox::center() const noexcept {
  return {(min_.x + max_.x) / 2.0, (min_.y + max_.y) / 2.0};
}

double BBox::width() const noexcept { return empty() ? 0.0 : max_.x - min_.x; }
double BBox::height() const noexcept { return empty() ? 0.0 : max_.y - min_.y; }

bool BBox::contains(const Point& p) const noexcept {
  return !empty() && p.x >= min_.x && p.x <= max_.x && p.y >= min_.y &&
         p.y <= max_.y;
}

void BBox::expand(const Point& p) noexcept {
  if (empty()) {
    min_ = p;
    max_ = p;
    return;
  }
  min_.x = std::min(min_.x, p.x);
  min_.y = std::min(min_.y, p.y);
  max_.x = std::max(max_.x, p.x);
  max_.y = std::max(max_.y, p.y);
}

}  // namespace rap::geo
