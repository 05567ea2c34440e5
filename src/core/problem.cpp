#include "src/core/problem.h"

#include <cmath>
#include <stdexcept>

namespace rap::core {
namespace {

const traffic::DetourSource& non_null(
    const std::unique_ptr<const traffic::DetourSource>& detours) {
  if (!detours) {
    throw std::invalid_argument("PlacementProblem: null detour source");
  }
  return *detours;
}

}  // namespace

PlacementProblem::PlacementProblem(
    const graph::RoadNetwork& net,
    const std::vector<traffic::TrafficFlow>& flows, graph::NodeId shop,
    const traffic::UtilityFunction& utility)
    : PlacementProblem(net, flows, shop, utility,
                       std::make_unique<traffic::DetourCalculator>(
                           net, (net.check_node(shop), shop))) {}

PlacementProblem::PlacementProblem(
    const graph::RoadNetwork& net,
    const std::vector<traffic::TrafficFlow>& flows, graph::NodeId shop,
    const traffic::UtilityFunction& utility,
    std::unique_ptr<const traffic::DetourSource> detours)
    : net_(&net),
      shop_(shop),
      utility_(&utility),
      incidence_(net, flows, non_null(detours), utility.range()) {
  weights_.reserve(flows.size());
  for (const traffic::TrafficFlow& flow : flows) {
    weights_.push_back({flow.population(), flow.alpha});
  }
}

double PlacementProblem::customers(traffic::FlowIndex flow,
                                   double detour) const {
  if (flow >= weights_.size()) {
    throw std::out_of_range("PlacementProblem::customers: bad flow index");
  }
  if (std::isinf(detour)) return 0.0;
  const FlowWeight& weight = weights_[flow];
  return utility_->probability(detour, weight.alpha) * weight.population;
}

}  // namespace rap::core
