// Flow classification for the Manhattan scenario (Definition 3):
//   straight — travels along a single vertical or horizontal street across
//              the region;
//   turned   — enters and exits the region through different orientations
//              (e.g. in via a horizontal street, out via a vertical one);
//   other    — everything else (e.g. in and out via different horizontal
//              streets, or a path that starts/ends inside the region).
// Two variants: the ideal grid (GridFlow) and real network flows relative
// to a D x D region box (used for the partially-grid Seattle city).
#pragma once

#include <cstdint>
#include <span>

#include "src/geo/bbox.h"
#include "src/manhattan/grid_scenario.h"
#include "src/traffic/flow.h"

namespace rap::manhattan {

enum class GridFlowClass : std::uint8_t { kStraight, kTurned, kOther };

/// Classifies an ideal-grid flow. Throws when entry/exit are not boundary
/// intersections.
[[nodiscard]] GridFlowClass classify_grid_flow(const GridScenario& scenario,
                                               const GridFlow& flow);

/// Region-boundary edges, for the network variant.
enum class RegionEdge : std::uint8_t { kWest, kEast, kSouth, kNorth, kNone };

/// Where a path crosses a region box.
struct RegionTransit {
  bool crosses = false;  ///< path both enters and leaves the region
  geo::Point entry;      ///< first boundary crossing point
  geo::Point exit;       ///< last boundary crossing point
  RegionEdge entry_edge = RegionEdge::kNone;
  RegionEdge exit_edge = RegionEdge::kNone;
};

/// Computes the first-entry and last-exit crossings of the polyline through
/// `path`'s node positions. crosses == false when the path never enters the
/// region or starts/ends inside it.
[[nodiscard]] RegionTransit region_transit(const graph::RoadNetwork& net,
                                           std::span<const graph::NodeId> path,
                                           const geo::BBox& region);

/// Classifies a network flow against a region box. `alignment_tol` is the
/// maximum cross-axis displacement for a crossing to count as straight
/// (e.g. half a block).
[[nodiscard]] GridFlowClass classify_path_region(
    const graph::RoadNetwork& net, std::span<const graph::NodeId> path,
    const geo::BBox& region, double alignment_tol);

}  // namespace rap::manhattan
