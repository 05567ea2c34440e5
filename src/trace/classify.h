// Intersection classification (Section V-A): "according to the amount of
// passing traffic flows, all the street intersections in both traces are
// classified into city's center, city, or suburb" — used to pick shop
// locations in the experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/road_network.h"
#include "src/traffic/flow.h"

namespace rap::trace {

enum class LocationClass : std::uint8_t { kCityCenter, kCity, kSuburb };

/// Top fraction of the intersections with traffic (by passing vehicles)
/// tagged city-centre.
inline constexpr double kCenterFraction = 0.10;
/// Next fraction tagged city; the rest (and all traffic-free
/// intersections) are suburb.
inline constexpr double kCityFraction = 0.40;

/// Class per intersection, ranked by daily vehicles passing it. `passing`
/// is traffic::passing_traffic over the flows, the ranking MaxVehicles
/// reads, so a caller that needs both walks the paths once.
[[nodiscard]] std::vector<LocationClass> classify_intersections(
    const traffic::PassingTraffic& passing);

/// The same from the flows themselves. Throws std::invalid_argument on a
/// bad flow.
[[nodiscard]] inline std::vector<LocationClass> classify_intersections(
    const graph::RoadNetwork& net,
    const std::vector<traffic::TrafficFlow>& flows) {
  return classify_intersections(traffic::passing_traffic(net, flows));
}

/// All intersections of one class.
[[nodiscard]] std::vector<graph::NodeId> nodes_in_class(
    const std::vector<LocationClass>& classes, LocationClass wanted);

[[nodiscard]] const char* to_string(LocationClass c) noexcept;

}  // namespace rap::trace
