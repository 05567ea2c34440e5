#include "src/eval/shop_siting.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "src/core/composite_greedy.h"
#include "src/traffic/detour.h"

namespace rap::eval {

std::vector<SiteScore> rank_shop_sites(
    const graph::RoadNetwork& net,
    const std::vector<traffic::TrafficFlow>& flows,
    const traffic::UtilityFunction& utility, const ShopSitingOptions& options) {
  if (options.k == 0) {
    throw std::invalid_argument("rank_shop_sites: k must be > 0");
  }
  std::vector<graph::NodeId> candidates = options.candidates;
  if (candidates.empty()) {
    candidates.resize(net.num_nodes());
    for (graph::NodeId v = 0; v < candidates.size(); ++v) candidates[v] = v;
  } else {
    for (const graph::NodeId v : candidates) net.check_node(v);
  }

  std::optional<graph::DistanceMatrix> matrix;
  if (net.num_nodes() <= kShopSitingDenseNodes) {
    matrix.emplace(graph::all_pairs_shortest_paths(net));
  }

  std::vector<SiteScore> scores;
  scores.reserve(candidates.size());
  for (const graph::NodeId shop : candidates) {
    std::unique_ptr<const traffic::DetourSource> detours;
    if (matrix.has_value()) {
      std::vector<double> to_shop(net.num_nodes());  // the shop's column: d'
      for (graph::NodeId v = 0; v < to_shop.size(); ++v) {
        to_shop[v] = (*matrix)(v, shop);
      }
      const std::span<const double> from_shop = matrix->row(shop);  // d''
      detours = std::make_unique<traffic::DetourCalculator>(
          net, shop, std::move(to_shop),
          std::vector<double>(from_shop.begin(), from_shop.end()));
    } else {
      detours = std::make_unique<traffic::DetourCalculator>(net, shop);
    }
    const core::PlacementProblem problem(net, flows, shop, utility,
                                         std::move(detours));
    core::PlacementResult placed =
        core::composite_greedy_placement(problem, options.k);
    scores.push_back({shop, placed.customers, std::move(placed.nodes)});
  }
  std::sort(scores.begin(), scores.end(),
            [](const SiteScore& a, const SiteScore& b) {
              if (a.customers != b.customers) return a.customers > b.customers;
              return a.shop < b.shop;
            });
  if (options.top > 0 && scores.size() > options.top) {
    scores.resize(options.top);
  }
  return scores;
}

}  // namespace rap::eval
