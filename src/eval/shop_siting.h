// Shop siting — the inverse question a business actually asks first:
// *where should the shop go*, given that k RAPs will then be placed
// optimally for it? For each candidate intersection the optimiser builds
// the placement problem with the shop there, runs the placement algorithm,
// and ranks candidates by attracted customers.
//
// On small cities the evaluation loop shares one all-pairs matrix across all
// candidate shops (the paper's O(|V|^3) preprocessing, amortised): each
// candidate's DetourCalculator reads its d' and d'' arrays off the matrix's
// shop column and row. Above kShopSitingDenseNodes, where the n^2 matrix is
// unaffordable, each candidate runs its own two shop-rooted Dijkstras
// instead, O(n) memory.
#pragma once

#include <vector>

#include "src/core/problem.h"
#include "src/graph/apsp.h"

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

/// Node count up to which candidates share one dense matrix (2048^2 doubles
/// = 32 MiB); above it each candidate runs two shop Dijkstras.
inline constexpr std::size_t kShopSitingDenseNodes = 2048;

/// Ranks candidate shop sites by the customers their best placement
/// attracts (descending; ties towards the lower node id). Throws
/// std::invalid_argument on k == 0 or a bad candidate id.
[[nodiscard]] std::vector<SiteScore> rank_shop_sites(
    const graph::RoadNetwork& net,
    const std::vector<traffic::TrafficFlow>& flows,
    const traffic::UtilityFunction& utility, const ShopSitingOptions& options);

}  // namespace rap::eval
