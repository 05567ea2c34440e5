#include "src/core/multishop.h"

#include <algorithm>
#include <stdexcept>

namespace rap::core {

MultiShopDetour::MultiShopDetour(const graph::RoadNetwork& net,
                                 const std::vector<graph::NodeId>& shops)
    : net_(&net) {
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
  // One walk serves every shop.
  const std::vector<double> direct =
      traffic::remaining_along_path(*net_, flow);  // d'''
  std::fill(out.begin(), out.end(), graph::kUnreachable);
  for (const traffic::DetourCalculator& calc : calculators_) {
    const double d2 = calc.from_shop()[flow.destination];
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::min(out[i], traffic::detour_distance(
                                    calc.to_shop()[flow.path[i]], d2,
                                    direct[i]));
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
