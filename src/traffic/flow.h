// Traffic flows: the paper's T(i,j) — a daily volume of vehicles travelling
// a fixed path from intersection i to intersection j (e.g. commuters
// returning home from the office). Flows carry the advertisement
// attractiveness alpha(T(i,j)) and a passengers-per-vehicle factor so bus
// traces (100 passengers/bus in Dublin, 200 in Seattle) map onto customer
// counts.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/road_network.h"

namespace rap::traffic {

using FlowIndex = std::uint32_t;

struct TrafficFlow {
  graph::NodeId origin = graph::kInvalidNode;
  graph::NodeId destination = graph::kInvalidNode;
  /// Travel path in order, path.front() == origin, path.back() == destination.
  std::vector<graph::NodeId> path;
  /// Daily vehicle count on this flow.
  double daily_vehicles = 0.0;
  /// Potential customers per vehicle (bus passengers; 1 for private cars).
  double passengers_per_vehicle = 1.0;
  /// Advertisement attractiveness alpha(T(i,j)) — the detour probability at
  /// zero detour distance.
  double alpha = 1.0;

  /// Potential customers per day travelling this flow.
  [[nodiscard]] double population() const noexcept {
    return daily_vehicles * passengers_per_vehicle;
  }

  friend bool operator==(const TrafficFlow&, const TrafficFlow&) = default;
};

/// What validate_flow throws for a path that is not a walk on the network.
inline constexpr const char* kNotAWalk =
    "validate_flow: path is not a walk on the network";

/// Throws std::invalid_argument unless the flow is well-formed on `net`:
/// non-empty walk from origin to destination, positive volumes whose
/// product (the population) is finite, alpha in [0, 1]. Runs, in order,
/// check_flow_ends, the walk check (kNotAWalk) and check_flow_weights.
void validate_flow(const graph::RoadNetwork& net, const TrafficFlow& flow);

/// validate_flow's checks before the walk: the path is non-empty and runs
/// from origin to destination.
void check_flow_ends(const TrafficFlow& flow);

/// validate_flow's checks after the walk: the volumes and alpha.
void check_flow_weights(const TrafficFlow& flow);

/// Builds a flow travelling a shortest path from `origin` to `destination`.
/// Throws if the destination is unreachable.
[[nodiscard]] TrafficFlow make_shortest_path_flow(const graph::RoadNetwork& net,
                                                  graph::NodeId origin,
                                                  graph::NodeId destination,
                                                  double daily_vehicles,
                                                  double passengers_per_vehicle = 1.0,
                                                  double alpha = 1.0);

/// Total potential customers across all flows.
[[nodiscard]] double total_population(const std::vector<TrafficFlow>& flows) noexcept;

/// The traffic passing each intersection on the flows' recorded paths.
struct PassingTraffic {
  std::vector<std::uint32_t> flows;  ///< distinct flows passing each node
  std::vector<double> vehicles;      ///< their summed daily_vehicles
};

/// Passing traffic per intersection: each flow counts once per distinct
/// node on its path, and the vehicle sums add flows in ascending order.
/// This one rule ranks the MaxCardinality/MaxVehicles baselines and
/// classifies intersections. Throws std::invalid_argument on a bad flow.
[[nodiscard]] PassingTraffic passing_traffic(
    const graph::RoadNetwork& net, const std::vector<TrafficFlow>& flows);

}  // namespace rap::traffic
