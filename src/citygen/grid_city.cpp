#include "src/citygen/grid_city.h"

#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace rap::citygen {

GridCity::GridCity(const GridSpec& spec) : spec_(spec) {
  if (spec.cols < 2 || spec.rows < 2) {
    throw std::invalid_argument("GridCity: need at least a 2x2 grid");
  }
  if (!(spec.spacing > 0.0)) {
    throw std::invalid_argument("GridCity: spacing must be > 0");
  }
  graph::NetworkBuilder net;
  for (std::size_t row = 0; row < spec.rows; ++row) {
    for (std::size_t col = 0; col < spec.cols; ++col) {
      net.add_node({spec.origin.x + static_cast<double>(col) * spec.spacing,
                    spec.origin.y + static_cast<double>(row) * spec.spacing});
    }
  }
  for (std::size_t row = 0; row < spec.rows; ++row) {
    for (std::size_t col = 0; col < spec.cols; ++col) {
      if (col + 1 < spec.cols) {
        net.add_two_way_edge(node_at(col, row), node_at(col + 1, row),
                             spec.spacing);
      }
      if (row + 1 < spec.rows) {
        net.add_two_way_edge(node_at(col, row), node_at(col, row + 1),
                             spec.spacing);
      }
    }
  }
  network_ = std::move(net).build();
}

graph::NodeId GridCity::node_at(GridCoord coord) const {
  return node_at(coord.col, coord.row);
}

graph::NodeId GridCity::node_at(std::size_t col, std::size_t row) const {
  if (col >= spec_.cols || row >= spec_.rows) {
    throw std::out_of_range("GridCity::node_at: coordinate outside the grid");
  }
  return static_cast<graph::NodeId>(row * spec_.cols + col);
}

GridCoord GridCity::coord_of(graph::NodeId node) const {
  network_.check_node(node);
  return {node % spec_.cols, node / spec_.cols};
}

graph::NodeId GridCity::center_node() const {
  return node_at(spec_.cols / 2, spec_.rows / 2);
}

}  // namespace rap::citygen
