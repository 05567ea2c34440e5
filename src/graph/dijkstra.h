// Single-source shortest paths on a RoadNetwork (non-negative lengths are
// guaranteed by RoadNetwork's edge validation).
//
// Forward mode answers dist(source, v) for all v; reverse mode answers
// dist(v, source) by traversing incoming edges — the placement engine uses
// reverse mode to compute every intersection's distance *to* the shop in one
// run, which is the d' term of the paper's detour formula. The detour needs
// only distances to and from the shop, so no all-pairs table is built; the
// paper's O(|V|^3) preprocessing survives only as floyd_warshall, the
// reference the tests check the trees against.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "src/graph/road_network.h"

namespace rap::graph {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

enum class Direction {
  kForward,  ///< distances from the source
  kReverse,  ///< distances to the source
};

/// Result of one Dijkstra run.
class ShortestPathTree {
 public:
  ShortestPathTree(NodeId source, Direction direction,
                   std::vector<double> dist, std::vector<NodeId> parent)
      : source_(source),
        direction_(direction),
        dist_(std::move(dist)),
        parent_(std::move(parent)) {}

  [[nodiscard]] NodeId source() const noexcept { return source_; }
  [[nodiscard]] Direction direction() const noexcept { return direction_; }

  /// Distance from/to the source (kUnreachable if disconnected).
  [[nodiscard]] double distance(NodeId node) const;
  [[nodiscard]] bool reachable(NodeId node) const;
  [[nodiscard]] const std::vector<double>& distances() const noexcept {
    return dist_;
  }

  /// Path between the source and `node`, oriented in travel order:
  /// forward mode: source -> node; reverse mode: node -> source.
  /// std::nullopt when unreachable.
  [[nodiscard]] std::optional<std::vector<NodeId>> path_to(NodeId node) const;

 private:
  NodeId source_;
  Direction direction_;
  std::vector<double> dist_;
  std::vector<NodeId> parent_;  // predecessor towards the source
};

/// Runs Dijkstra over the whole graph.
[[nodiscard]] ShortestPathTree dijkstra(const RoadNetwork& net, NodeId source,
                                        Direction direction = Direction::kForward);

/// Point-to-point distance with early exit once `target` is settled.
[[nodiscard]] double dijkstra_distance(const RoadNetwork& net, NodeId source,
                                       NodeId target);

/// Point-to-point shortest path (travel order source -> target); nullopt when
/// unreachable.
[[nodiscard]] std::optional<std::vector<NodeId>> shortest_path(
    const RoadNetwork& net, NodeId source, NodeId target);

/// All-pairs distances by Floyd–Warshall (O(|V|^3); test reference): row i,
/// column j holds dist(i, j), kUnreachable when j cannot be reached.
[[nodiscard]] std::vector<std::vector<double>> floyd_warshall(
    const RoadNetwork& net);

}  // namespace rap::graph
