#include "src/traffic/detour.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/graph/path.h"

namespace rap::traffic {

DetourCalculator::DetourCalculator(const graph::RoadNetwork& net,
                                   graph::NodeId shop, DetourMode mode)
    : net_(&net),
      shop_(shop),
      mode_(mode),
      to_shop_(graph::dijkstra(net, shop, graph::Direction::kReverse)
                   .distances()),
      from_shop_(graph::dijkstra(net, shop, graph::Direction::kForward)
                     .distances()) {}

DetourCalculator::DetourCalculator(const graph::RoadNetwork& net,
                                   graph::NodeId shop,
                                   std::vector<double> to_shop,
                                   std::vector<double> from_shop)
    : net_(&net),
      shop_(shop),
      mode_(DetourMode::kAlongPath),
      to_shop_(std::move(to_shop)),
      from_shop_(std::move(from_shop)) {
  net.check_node(shop);
  if (to_shop_.size() != net.num_nodes() ||
      from_shop_.size() != net.num_nodes()) {
    throw std::invalid_argument(
        "DetourCalculator: distance arrays must cover every node");
  }
}

double DetourCalculator::distance_to_shop(graph::NodeId node) const {
  net_->check_node(node);
  return to_shop_[node];
}

double DetourCalculator::distance_from_shop(graph::NodeId node) const {
  net_->check_node(node);
  return from_shop_[node];
}

const graph::ShortestPathTree& DetourCalculator::tree_to_destination(
    graph::NodeId destination) const {
  const auto it = to_destination_.find(destination);
  if (it != to_destination_.end()) return it->second;
  return to_destination_
      .emplace(destination,
               graph::dijkstra(*net_, destination, graph::Direction::kReverse))
      .first->second;
}

std::vector<double> DetourCalculator::detours_along_path(
    const TrafficFlow& flow) const {
  validate_flow(*net_, flow);
  const double d2 = from_shop_[flow.destination];  // d''
  std::vector<double> out(flow.path.size(), graph::kUnreachable);
  if (d2 == graph::kUnreachable) return out;

  std::vector<double> direct(flow.path.size());  // d''' per position
  if (mode_ == DetourMode::kAlongPath) {
    const std::vector<double> cum = graph::cumulative_lengths(*net_, flow.path);
    for (std::size_t i = 0; i < flow.path.size(); ++i) {
      direct[i] = cum.back() - cum[i];
    }
  } else {
    const graph::ShortestPathTree& tree = tree_to_destination(flow.destination);
    for (std::size_t i = 0; i < flow.path.size(); ++i) {
      direct[i] = tree.distance(flow.path[i]);
    }
  }

  for (std::size_t i = 0; i < flow.path.size(); ++i) {
    const double d1 = to_shop_[flow.path[i]];  // d'
    if (d1 == graph::kUnreachable || direct[i] == graph::kUnreachable) continue;
    out[i] = std::max(0.0, d1 + d2 - direct[i]);
  }
  return out;
}

}  // namespace rap::traffic
