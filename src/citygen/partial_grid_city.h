// "Seattle-like" city: a Manhattan grid with irregularities. Seattle's
// central-area street plan is only *partially* grid-based (Section V-A), so
// the generator starts from an ideal grid and then
//   * removes a fraction of street segments (waterfront/terrain gaps),
//   * removes a fraction of intersections (parks, superblocks),
//   * converts a fraction of streets to one-way (downtown couplets),
//   * jitters intersection positions slightly.
// The result is restricted to its largest strongly connected component so
// every surviving OD pair has a route.
#pragma once

#include "src/citygen/grid_city.h"
#include "src/graph/road_network.h"
#include "src/util/rng.h"

namespace rap::citygen {

struct PartialGridSpec {
  GridSpec grid;
  double edge_removal_prob = 0.08;  ///< fraction of street segments dropped
  double node_removal_prob = 0.03;  ///< fraction of intersections dropped
  double oneway_prob = 0.05;        ///< fraction of streets made one-way
  double position_jitter = 0.0;     ///< stddev of coordinate noise, in feet
};

class PartialGridCity {
 public:
  /// Builds deterministically from `rng`. Throws on invalid probabilities
  /// (outside [0, 1)) or an invalid base grid.
  PartialGridCity(const PartialGridSpec& spec, util::Rng& rng);

  [[nodiscard]] const graph::RoadNetwork& network() const noexcept {
    return network_;
  }
  [[nodiscard]] const PartialGridSpec& spec() const noexcept { return spec_; }

  /// Fraction of the ideal grid's street segments that survived (a measure
  /// of "how grid-like" the city is; 1.0 = perfect grid).
  [[nodiscard]] double grid_fidelity() const noexcept { return fidelity_; }

 private:
  PartialGridSpec spec_;
  graph::RoadNetwork network_;
  double fidelity_ = 1.0;
};

}  // namespace rap::citygen
