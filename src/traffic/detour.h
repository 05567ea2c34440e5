// Detour-distance engine (Section III-A, Fig. 3).
//
// A driver of flow T(i,j) who receives the advertisement at intersection v
// faces detour distance
//     d = d' + d'' - d'''
// where d'   = shortest distance from v to the shop,
//       d''  = shortest distance from the shop to the destination j,
//       d''' = distance from v to j "directly".
//
// d''' is the remaining distance along the driver's own route, their frame
// of reference. On a shortest-path flow it equals the network shortest-path
// distance v -> j; trace-extracted paths can deviate slightly, and
// bench/ablation_design prices that second reading for comparison.
// Detours are clamped at 0 (a shop directly on the route costs nothing) and
// are +infinity when the shop cannot be reached from v or j from the shop.
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/graph/dijkstra.h"
#include "src/graph/road_network.h"
#include "src/traffic/flow.h"

namespace rap::traffic {

/// The detour rule for one stop, d = d' + d'' - d''': kUnreachable when any
/// leg is unreachable, otherwise clamped at 0.
[[nodiscard]] inline double detour_distance(double d1, double d2,
                                            double d3) noexcept {
  if (d1 == graph::kUnreachable || d2 == graph::kUnreachable ||
      d3 == graph::kUnreachable) {
    return graph::kUnreachable;
  }
  return std::max(0.0, d1 + d2 - d3);
}

/// One entry of a coverage reach list: a flow and the detour a RAP at the
/// list's node offers it.
struct NodeIncidence {
  FlowIndex flow = 0;
  double detour = graph::kUnreachable;
};

/// Anything that can price a flow's detour at every node of its path.
/// DetourCalculator is the single-shop implementation; the multi-shop
/// extension (core/multishop.h) takes the minimum over several shops.
///
/// Pricing walks the path, and that walk is the walk check: a source
/// throws std::invalid_argument(kNotAWalk) for a path that is not a walk
/// on its network, so core::fixed_path_coverage runs no walk of its own.
class DetourSource {
 public:
  virtual ~DetourSource() = default;

  /// Writes the detour at every node of the flow's path into `out`, in
  /// path order; kUnreachable where no detour exists. `out` must hold
  /// exactly flow.path.size() values.
  void detours_along_path(const TrafficFlow& flow,
                          std::span<double> out) const {
    if (out.size() != flow.path.size()) {
      throw std::invalid_argument(
          "detours_along_path: output size differs from the path's");
    }
    price_path(flow, out);
  }

  /// The same detours in a fresh vector.
  [[nodiscard]] std::vector<double> detours_along_path(
      const TrafficFlow& flow) const {
    std::vector<double> out(flow.path.size());
    price_path(flow, out);
    return out;
  }

 protected:
  DetourSource() = default;
  DetourSource(const DetourSource&) = default;
  DetourSource& operator=(const DetourSource&) = default;

 private:
  /// detours_along_path's body; `out.size() == flow.path.size()`.
  virtual void price_path(const TrafficFlow& flow,
                          std::span<double> out) const = 0;
};

class DetourCalculator final : public DetourSource {
 public:
  /// Checks the shop, then runs the two shop Dijkstras eagerly
  /// (O(|E| log |V|) each). Their trees are the only source of d' and d''.
  DetourCalculator(const graph::RoadNetwork& net, graph::NodeId shop);

  [[nodiscard]] graph::NodeId shop() const noexcept { return shop_; }

  /// d' (shortest distance to the shop) and d'' (from the shop) per node.
  [[nodiscard]] const std::vector<double>& to_shop() const noexcept {
    return to_shop_;
  }
  [[nodiscard]] const std::vector<double>& from_shop() const noexcept {
    return from_shop_;
  }

 private:
  /// One walk fills out[i] with the distance travelled to path[i]; one
  /// pass then prices d' + d'' - (total - travelled), d''' being the
  /// distance left along the path. Throws std::invalid_argument unless the
  /// path is a non-empty walk (kNotAWalk) ending at flow.destination, so
  /// every path node and the destination index the trees safely;
  /// validate_flow's other checks are the caller's.
  void price_path(const TrafficFlow& flow,
                  std::span<double> out) const override;

  const graph::RoadNetwork* net_;
  graph::NodeId shop_;
  std::vector<double> to_shop_;    // reverse Dijkstra from the shop: d'
  std::vector<double> from_shop_;  // forward Dijkstra from the shop: d''
};

}  // namespace rap::traffic
