// Ideal Manhattan grid city: cols x rows intersections joined by two-way
// streets at right angles (Section IV's street plan). Every vehicle can move
// in exactly four directions.
#pragma once

#include <cstddef>

#include "src/geo/point.h"
#include "src/graph/road_network.h"

namespace rap::citygen {

struct GridCoord {
  std::size_t col = 0;
  std::size_t row = 0;
  friend constexpr bool operator==(const GridCoord&, const GridCoord&) = default;
};

struct GridSpec {
  std::size_t cols = 2;
  std::size_t rows = 2;
  double spacing = 1.0;          ///< street-block edge length
  geo::Point origin = {0.0, 0.0};  ///< position of intersection (0, 0)
};

class GridCity {
 public:
  /// Throws std::invalid_argument when cols/rows < 2 or spacing <= 0.
  explicit GridCity(const GridSpec& spec);

  [[nodiscard]] const graph::RoadNetwork& network() const noexcept {
    return network_;
  }
  [[nodiscard]] const GridSpec& spec() const noexcept { return spec_; }

  [[nodiscard]] graph::NodeId node_at(GridCoord coord) const;
  [[nodiscard]] graph::NodeId node_at(std::size_t col, std::size_t row) const;
  [[nodiscard]] GridCoord coord_of(graph::NodeId node) const;

  /// Node closest to the geometric centre (the paper puts the shop there).
  [[nodiscard]] graph::NodeId center_node() const;

 private:
  GridSpec spec_;
  graph::RoadNetwork network_;
};

}  // namespace rap::citygen
