#include "src/core/multishop.h"

#include <algorithm>
#include <stdexcept>

namespace rap::core {

MultiShopDetour::MultiShopDetour(const graph::RoadNetwork& net,
                                 const std::vector<graph::NodeId>& shops) {
  if (shops.empty()) {
    throw std::invalid_argument("MultiShopDetour: need at least one shop");
  }
  calculators_.reserve(shops.size());
  for (const graph::NodeId shop : shops) {
    net.check_node(shop);
    calculators_.emplace_back(net, shop);
  }
}

std::vector<double> MultiShopDetour::detours_along_path(
    const traffic::TrafficFlow& flow) const {
  std::vector<double> best = calculators_.front().detours_along_path(flow);
  for (std::size_t s = 1; s < calculators_.size(); ++s) {
    const std::vector<double> candidate =
        calculators_[s].detours_along_path(flow);
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], candidate[i]);
    }
  }
  return best;
}

PlacementProblem make_multishop_problem(
    const graph::RoadNetwork& net, std::vector<traffic::TrafficFlow> flows,
    const std::vector<graph::NodeId>& shops,
    const traffic::UtilityFunction& utility) {
  return PlacementProblem(
      net, std::move(flows), graph::kInvalidNode, utility,
      std::make_unique<MultiShopDetour>(net, shops));
}

}  // namespace rap::core
