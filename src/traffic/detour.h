// Detour-distance engine (Section III-A, Fig. 3).
//
// A driver of flow T(i,j) who receives the advertisement at intersection v
// faces detour distance
//     d = d' + d'' - d'''
// where d'   = shortest distance from v to the shop,
//       d''  = shortest distance from the shop to the destination j,
//       d''' = distance from v to j "directly".
//
// For a flow travelling a shortest path, the remaining distance along the
// path equals the shortest-path distance, so the two readings of d'''
// coincide. Trace-extracted paths can deviate slightly from shortest, so
// both modes are provided:
//   kAlongPath     — d''' is the remaining distance along the driver's own
//                    route (their frame of reference); the default.
//   kShortestPath  — d''' is the network shortest-path distance v -> j
//                    (one cached reverse Dijkstra per distinct destination).
// Detours are clamped at 0 (a shop directly on the route costs nothing) and
// are +infinity when the shop cannot be reached from v or j from the shop.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/graph/dijkstra.h"
#include "src/graph/road_network.h"
#include "src/traffic/flow.h"

namespace rap::traffic {

enum class DetourMode { kAlongPath, kShortestPath };

/// Anything that can price a flow's detour at every node of its path.
/// DetourCalculator is the single-shop implementation; the multi-shop
/// extension (core/multishop.h) takes the minimum over several shops.
class DetourSource {
 public:
  virtual ~DetourSource() = default;

  /// Detour distances at every node of the flow's path, in path order;
  /// kUnreachable where no detour exists.
  [[nodiscard]] virtual std::vector<double> detours_along_path(
      const TrafficFlow& flow) const = 0;

 protected:
  DetourSource() = default;
  DetourSource(const DetourSource&) = default;
  DetourSource& operator=(const DetourSource&) = default;
};

class DetourCalculator final : public DetourSource {
 public:
  /// Runs the two shop Dijkstras eagerly (O(|E| log |V|) each).
  DetourCalculator(const graph::RoadNetwork& net, graph::NodeId shop,
                   DetourMode mode = DetourMode::kAlongPath);

  /// A kAlongPath calculator over already computed d' and d'' arrays (one
  /// distance per node, kUnreachable where disconnected) — the serve
  /// store's rehydration path, and shop siting's shared-matrix path (the
  /// shop's matrix column and row). Prices bitwise like the Dijkstra-built
  /// one when the arrays are the trees' distances.
  /// Throws std::invalid_argument unless both arrays cover every node.
  DetourCalculator(const graph::RoadNetwork& net, graph::NodeId shop,
                   std::vector<double> to_shop, std::vector<double> from_shop);

  [[nodiscard]] graph::NodeId shop() const noexcept { return shop_; }

  /// d' — shortest distance from `node` to the shop.
  [[nodiscard]] double distance_to_shop(graph::NodeId node) const;
  /// d'' — shortest distance from the shop to `node`.
  [[nodiscard]] double distance_from_shop(graph::NodeId node) const;
  /// d' and d'' for every node.
  [[nodiscard]] const std::vector<double>& to_shop() const noexcept {
    return to_shop_;
  }
  [[nodiscard]] const std::vector<double>& from_shop() const noexcept {
    return from_shop_;
  }

  /// Detour distances at every node of the flow's path, in path order.
  /// The flow must be valid on the network (validate_flow).
  [[nodiscard]] std::vector<double> detours_along_path(
      const TrafficFlow& flow) const override;

 private:
  [[nodiscard]] const graph::ShortestPathTree& tree_to_destination(
      graph::NodeId destination) const;

  const graph::RoadNetwork* net_;
  graph::NodeId shop_;
  DetourMode mode_;
  std::vector<double> to_shop_;    // reverse Dijkstra from the shop: d'
  std::vector<double> from_shop_;  // forward Dijkstra from the shop: d''
  // kShortestPath mode: per-destination reverse trees, built on demand.
  mutable std::unordered_map<graph::NodeId, graph::ShortestPathTree>
      to_destination_;
};

}  // namespace rap::traffic
