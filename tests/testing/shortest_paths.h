// Test-side shortest-path references: an optimality check for a walk, and
// the shortest-path reading of a flow's detours, where d''' is the network
// distance v -> j rather than the distance left along the flow's path.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "src/graph/dijkstra.h"
#include "src/graph/path.h"
#include "src/traffic/flow.h"

namespace rap::testing {

/// True if the walk's length equals the shortest-path distance between its
/// endpoints (within a 1e-9 relative tolerance). Throws
/// std::invalid_argument unless `path` is a non-empty walk.
[[nodiscard]] inline bool is_shortest_path(
    const graph::RoadNetwork& net, std::span<const graph::NodeId> path) {
  const double walked = graph::cumulative_lengths(net, path).back();
  const double optimal =
      graph::dijkstra_distance(net, path.front(), path.back());
  return walked <= optimal * (1.0 + 1e-9) + 1e-9;
}

/// d' + d'' - d''' at every stop of `flow`, clamped at 0, with d''' read off
/// a reverse Dijkstra rooted at the flow's destination; kUnreachable where a
/// leg is unreachable. Written out independently of traffic::detour_distance.
[[nodiscard]] inline std::vector<double> shortest_path_detours(
    const graph::RoadNetwork& net, graph::NodeId shop,
    const traffic::TrafficFlow& flow) {
  const graph::ShortestPathTree to_shop =
      graph::dijkstra(net, shop, graph::Direction::kReverse);
  const graph::ShortestPathTree to_destination =
      graph::dijkstra(net, flow.destination, graph::Direction::kReverse);
  const double d2 = graph::dijkstra_distance(net, shop, flow.destination);
  std::vector<double> out;
  for (const graph::NodeId v : flow.path) {
    const double d1 = to_shop.distance(v);
    const double d3 = to_destination.distance(v);
    const bool reachable = d1 != graph::kUnreachable &&
                           d2 != graph::kUnreachable &&
                           d3 != graph::kUnreachable;
    out.push_back(reachable ? std::max(0.0, d1 + d2 - d3)
                            : graph::kUnreachable);
  }
  return out;
}

}  // namespace rap::testing
