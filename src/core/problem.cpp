#include "src/core/problem.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rap::core {
namespace {

constexpr std::uint32_t kNoFlow = ~std::uint32_t{0};

const traffic::DetourSource& non_null(
    const std::unique_ptr<const traffic::DetourSource>& detours) {
  if (!detours) {
    throw std::invalid_argument("PlacementProblem: null detour source");
  }
  return *detours;
}

}  // namespace

CoverageModel::CoverageModel(const graph::RoadNetwork& net, graph::NodeId shop,
                             const traffic::UtilityFunction& utility)
    : net_(&net), shop_(shop), utility_(&utility) {}

std::span<const traffic::NodeIncidence> CoverageModel::reach_at(
    graph::NodeId node) const {
  if (node + std::size_t{1} >= node_start_.size()) {
    throw std::out_of_range("CoverageModel: bad node id");
  }
  return {entries_.data() + node_start_[node],
          entries_.data() + node_start_[node + 1]};
}

double CoverageModel::customers(traffic::FlowIndex flow, double detour) const {
  if (flow >= weights_.size()) {
    throw std::out_of_range("CoverageModel::customers: bad flow index");
  }
  if (std::isinf(detour)) return 0.0;
  const FlowWeight& weight = weights_[flow];
  return utility_->probability(detour, weight.alpha) * weight.population;
}

CoverageBuilder::CoverageBuilder(const graph::RoadNetwork& net,
                                 graph::NodeId shop,
                                 const traffic::UtilityFunction& utility,
                                 double max_detour)
    : model_(net, shop, utility),
      max_detour_(max_detour),
      last_flow_(net.num_nodes(), kNoFlow),
      staged_at_(net.num_nodes()) {}

void CoverageBuilder::add_flow(double population, double alpha) {
  if (!(population >= 0.0) || !std::isfinite(population)) {
    throw std::invalid_argument(
        "CoverageBuilder: population must be finite and >= 0");
  }
  if (!(alpha >= 0.0 && alpha <= 1.0)) {  // NaN fails too
    throw std::invalid_argument("CoverageBuilder: alpha must be in [0, 1]");
  }
  prune_open_flow();
  open_begin_ = staged_.size();
  model_.weights_.push_back({population, alpha});
}

void CoverageBuilder::add_pass(graph::NodeId node, double detour) {
  if (model_.weights_.empty()) {
    throw std::logic_error("CoverageBuilder::add_pass: no open flow");
  }
  if (node >= last_flow_.size()) {
    throw std::out_of_range("CoverageBuilder::add_pass: bad node id");
  }
  const auto flow = static_cast<traffic::FlowIndex>(model_.weights_.size() - 1);
  if (last_flow_[node] == flow) {
    double& kept = staged_[staged_at_[node]].detour;
    kept = std::min(kept, detour);
    return;
  }
  last_flow_[node] = flow;
  staged_at_[node] = static_cast<std::uint32_t>(staged_.size());
  staged_.push_back({node, flow, detour});
}

void CoverageBuilder::prune_open_flow() {
  const double max_detour = max_detour_;
  staged_.erase(
      std::remove_if(staged_.begin() + static_cast<std::ptrdiff_t>(open_begin_),
                     staged_.end(),
                     [max_detour](const Staged& s) {
                       return !(s.detour <= max_detour);
                     }),
      staged_.end());
}

CoverageModel CoverageBuilder::build() && {
  prune_open_flow();
  const std::size_t n = last_flow_.size();
  std::vector<std::uint32_t>& start = model_.node_start_;
  start.assign(n + 1, 0);
  for (const Staged& s : staged_) ++start[s.node + 1];
  for (std::size_t v = 1; v <= n; ++v) start[v] += start[v - 1];
  model_.entries_.resize(staged_.size());
  std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
  for (const Staged& s : staged_) {
    model_.entries_[cursor[s.node]++] =
        traffic::NodeIncidence{s.flow, s.detour};
  }
  return std::move(model_);
}

CoverageModel fixed_path_coverage(
    const graph::RoadNetwork& net,
    const std::vector<traffic::TrafficFlow>& flows, graph::NodeId shop,
    const traffic::UtilityFunction& utility,
    const traffic::DetourSource& detours, double max_detour) {
  CoverageBuilder builder(net, shop, utility, max_detour);
  builder.reserve_flows(flows.size());
  std::vector<double> path_detours;  // reused: one allocation per build
  for (const traffic::TrafficFlow& flow : flows) {
    // validate_flow's checks in its order; pricing is the walk check.
    traffic::check_flow_ends(flow);
    path_detours.resize(flow.path.size());
    detours.detours_along_path(flow, path_detours);
    traffic::check_flow_weights(flow);
    builder.add_flow(flow.population(), flow.alpha);
    for (std::size_t i = 0; i < flow.path.size(); ++i) {
      builder.add_pass(flow.path[i], path_detours[i]);
    }
  }
  return std::move(builder).build();
}

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
    : CoverageModel(fixed_path_coverage(net, flows, shop, utility,
                                        non_null(detours), utility.range())) {}

}  // namespace rap::core
