// Multi-shop extension (Section III-A: "our model can also be easily
// extended to scenarios with multiple shops... the result depends on the
// shop that provides the smallest detour distance among all the shops";
// Section VI lists multi-shop scheduling as future work).
//
// A driver who receives the advertisement at node v detours to whichever
// shop is cheapest from there, so the effective detour at v is the minimum
// of the per-shop detours. MultiShopDetour implements exactly that, and
// make_multishop_problem wires it into a regular PlacementProblem so all
// placement algorithms (greedy, composite, exhaustive, baselines except
// Random) work unchanged.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/core/problem.h"
#include "src/traffic/detour.h"

namespace rap::core {

class MultiShopDetour final : public traffic::DetourSource {
 public:
  /// Throws std::invalid_argument when `shops` is empty or contains an
  /// invalid node.
  MultiShopDetour(const graph::RoadNetwork& net,
                  const std::vector<graph::NodeId>& shops);

 private:
  /// Each shop's calculator prices the path in turn; `out` keeps the
  /// element-wise minimum, folded in shop order.
  void price_path(const traffic::TrafficFlow& flow,
                  std::span<double> out) const override;

  std::vector<traffic::DetourCalculator> calculators_;
};

/// Builds a placement problem whose detours are minima over several shops.
/// problem.shop() is kInvalidNode (there is no single shop), so the Random
/// baseline does not apply.
[[nodiscard]] PlacementProblem make_multishop_problem(
    const graph::RoadNetwork& net, std::vector<traffic::TrafficFlow> flows,
    const std::vector<graph::NodeId>& shops,
    const traffic::UtilityFunction& utility);

}  // namespace rap::core
