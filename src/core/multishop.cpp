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

void MultiShopDetour::price_path(const traffic::TrafficFlow& flow,
                                 std::span<double> out) const {
  std::fill(out.begin(), out.end(), graph::kUnreachable);
  std::vector<double> shop_detours(out.size());
  for (const traffic::DetourCalculator& calc : calculators_) {
    calc.detours_along_path(flow, shop_detours);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::min(out[i], shop_detours[i]);
    }
  }
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
