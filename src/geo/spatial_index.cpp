#include "src/geo/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rap::geo {

SpatialIndex::SpatialIndex(std::span<const Point> points, double cell_size)
    : points_(points.begin(), points.end()), cell_size_(cell_size) {
  if (points_.empty()) return;
  if (!(cell_size > 0.0)) {
    throw std::invalid_argument("SpatialIndex: cell_size must be > 0");
  }
  for (const Point& p : points_) bounds_.expand(p);
  cols_ = static_cast<std::int64_t>(bounds_.width() / cell_size_) + 1;
  rows_ = static_cast<std::int64_t>(bounds_.height() / cell_size_) + 1;

  const std::size_t cell_count = static_cast<std::size_t>(cols_ * rows_);
  std::vector<std::uint32_t> counts(cell_count + 1, 0);
  std::vector<std::size_t> home(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    home[i] = cell_index(cell_of(points_[i]));
    ++counts[home[i] + 1];
  }
  for (std::size_t c = 1; c <= cell_count; ++c) counts[c] += counts[c - 1];
  cell_start_ = counts;
  bucket_entries_.resize(points_.size());
  std::vector<std::uint32_t> cursor(counts.begin(), counts.end() - 1);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    bucket_entries_[cursor[home[i]]++] = static_cast<std::uint32_t>(i);
  }
}

SpatialIndex::CellCoord SpatialIndex::cell_of(const Point& p) const noexcept {
  const auto clamp_cell = [](double v, std::int64_t hi) {
    const auto c = static_cast<std::int64_t>(v);
    return std::clamp<std::int64_t>(c, 0, hi - 1);
  };
  return {clamp_cell((p.x - bounds_.min().x) / cell_size_, cols_),
          clamp_cell((p.y - bounds_.min().y) / cell_size_, rows_)};
}

std::size_t SpatialIndex::cell_index(CellCoord c) const noexcept {
  return static_cast<std::size_t>(c.cy * cols_ + c.cx);
}

std::optional<std::size_t> SpatialIndex::nearest_in_ring(
    const Point& query, std::int64_t ring, double& best_dist2) const {
  const CellCoord origin = cell_of(query);
  std::optional<std::size_t> best;
  const auto visit_cell = [&](std::int64_t cx, std::int64_t cy) {
    if (cx < 0 || cx >= cols_ || cy < 0 || cy >= rows_) return;
    const std::size_t c = cell_index({cx, cy});
    for (std::uint32_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
      const std::uint32_t idx = bucket_entries_[k];
      const double d2 = squared_distance(points_[idx], query);
      if (d2 < best_dist2) {
        best_dist2 = d2;
        best = idx;
      }
    }
  };
  if (ring == 0) {
    visit_cell(origin.cx, origin.cy);
    return best;
  }
  for (std::int64_t dx = -ring; dx <= ring; ++dx) {
    visit_cell(origin.cx + dx, origin.cy - ring);
    visit_cell(origin.cx + dx, origin.cy + ring);
  }
  for (std::int64_t dy = -ring + 1; dy <= ring - 1; ++dy) {
    visit_cell(origin.cx - ring, origin.cy + dy);
    visit_cell(origin.cx + ring, origin.cy + dy);
  }
  return best;
}

std::optional<std::size_t> SpatialIndex::nearest(const Point& query) const {
  if (points_.empty()) return std::nullopt;
  double best_dist2 = std::numeric_limits<double>::infinity();
  std::optional<std::size_t> best;
  const std::int64_t max_ring = std::max(cols_, rows_);
  for (std::int64_t ring = 0; ring <= max_ring; ++ring) {
    if (const auto found = nearest_in_ring(query, ring, best_dist2)) {
      best = found;
    }
    // Once a candidate exists, any point in a ring further than the current
    // best distance cannot win; rings are `ring * cell_size_` away at least
    // (minus one cell of slack for the query's offset within its cell).
    if (best &&
        static_cast<double>(ring - 1) * cell_size_ > std::sqrt(best_dist2)) {
      break;
    }
  }
  return best;
}

std::optional<std::size_t> SpatialIndex::nearest_within(const Point& query,
                                                        double radius) const {
  if (points_.empty()) return std::nullopt;
  // A point in ring k lies more than (k - 1) cells from the query, so every
  // point within `radius` lies in rings 0..ceil(radius / cell_size_). Those
  // rings are a prefix of nearest()'s visit order, so the answer (ties
  // included) is nearest()'s whenever that lies within the radius. A NaN
  // radius scans every ring, as nearest() would.
  const std::int64_t max_ring = std::max(cols_, rows_);
  const double rings = std::ceil(radius / cell_size_);
  const std::int64_t last =
      rings < static_cast<double>(max_ring) ? static_cast<std::int64_t>(rings)
                                             : max_ring;
  double best_dist2 = std::numeric_limits<double>::infinity();
  std::optional<std::size_t> best;
  for (std::int64_t ring = 0; ring <= last; ++ring) {
    if (const auto found = nearest_in_ring(query, ring, best_dist2)) {
      best = found;
    }
  }
  if (!best) return std::nullopt;
  if (euclidean_distance(points_[*best], query) > radius) return std::nullopt;
  return best;
}

}  // namespace rap::geo
