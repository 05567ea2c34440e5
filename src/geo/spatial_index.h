// Uniform-grid spatial index over a fixed point set. The trace map matcher
// issues one nearest-intersection query per GPS sample, so this needs to be
// O(1)-ish per query instead of a linear scan over all intersections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/geo/bbox.h"
#include "src/geo/point.h"

namespace rap::geo {

class SpatialIndex {
 public:
  /// Builds an index over `points` (copied). `cell_size` must be > 0 unless
  /// the point set is empty; a good choice is the typical query radius
  /// (e.g. the average street-block length).
  SpatialIndex(std::span<const Point> points, double cell_size);

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

  /// Index of the nearest point to `query`; std::nullopt when empty.
  [[nodiscard]] std::optional<std::size_t> nearest(const Point& query) const;

  /// Nearest point within `radius` of `query`, if any: nearest() when that
  /// lies within `radius`. Scans only the cell rings the radius reaches, so
  /// a query far from every point costs no more than one near some.
  [[nodiscard]] std::optional<std::size_t> nearest_within(const Point& query,
                                                          double radius) const;

 private:
  struct CellCoord {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
  };

  [[nodiscard]] CellCoord cell_of(const Point& p) const noexcept;
  [[nodiscard]] std::size_t cell_index(CellCoord c) const noexcept;
  [[nodiscard]] std::optional<std::size_t> nearest_in_ring(
      const Point& query, std::int64_t ring, double& best_dist2) const;

  std::vector<Point> points_;
  double cell_size_ = 1.0;
  BBox bounds_;
  std::int64_t cols_ = 0;
  std::int64_t rows_ = 0;
  // CSR-style bucket layout: cell_start_[c]..cell_start_[c+1] indexes into
  // bucket_entries_.
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> bucket_entries_;
};

}  // namespace rap::geo
