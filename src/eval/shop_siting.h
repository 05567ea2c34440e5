// Shop siting — the inverse question a business actually asks first:
// *where should the shop go*, given that k RAPs will then be placed
// optimally for it? For each candidate intersection the optimiser builds
// the placement problem with the shop there, runs the placement algorithm,
// and ranks candidates by attracted customers.
//
// Each candidate is priced exactly like a directly built problem: its own
// PlacementProblem, whose DetourCalculator runs the two shop-rooted
// Dijkstras (O(n) memory), so a site's score is bitwise the score of
// composite greedy on that problem.
#pragma once

#include <vector>

#include "src/core/problem.h"

namespace rap::eval {

struct SiteScore {
  graph::NodeId shop = graph::kInvalidNode;
  double customers = 0.0;
  core::Placement placement;  ///< the k RAPs chosen for this site
};

struct ShopSitingOptions {
  std::size_t k = 5;
  /// Candidate shop intersections; empty means every intersection.
  std::vector<graph::NodeId> candidates;
  /// Keep only the best `top` sites in the result (0 = all).
  std::size_t top = 0;
};

/// Ranks candidate shop sites by the customers their best placement
/// attracts (descending; ties towards the lower node id). Throws
/// std::invalid_argument on k == 0 or a bad candidate id.
[[nodiscard]] std::vector<SiteScore> rank_shop_sites(
    const graph::RoadNetwork& net,
    const std::vector<traffic::TrafficFlow>& flows,
    const traffic::UtilityFunction& utility, const ShopSitingOptions& options);

}  // namespace rap::eval
