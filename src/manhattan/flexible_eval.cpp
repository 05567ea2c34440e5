#include "src/manhattan/flexible_eval.h"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "src/graph/dijkstra.h"
#include "src/traffic/detour.h"

namespace rap::manhattan {
namespace {

constexpr double kTol = 1e-9;

}  // namespace

FlexibleProblem::FlexibleProblem(const graph::RoadNetwork& net,
                                 std::vector<traffic::TrafficFlow> flows,
                                 graph::NodeId shop,
                                 const traffic::UtilityFunction& utility)
    : net_(&net), flows_(std::move(flows)), shop_(shop), utility_(&utility) {
  net.check_node(shop);
  for (const traffic::TrafficFlow& flow : flows_) {
    traffic::validate_flow(net, flow);
  }
  const std::size_t n = net.num_nodes();
  const traffic::DetourCalculator shop_trees(net, shop);  // d' and d''

  // Dijkstra caches keyed by endpoint: many flows share origins/destinations.
  using TreeCache = std::unordered_map<graph::NodeId, graph::ShortestPathTree>;
  TreeCache from_origin;
  TreeCache to_destination;
  const auto cached_tree = [&](TreeCache& cache, graph::NodeId root,
                               graph::Direction direction)
      -> const graph::ShortestPathTree& {
    auto it = cache.find(root);
    if (it == cache.end()) {
      it = cache.emplace(root, graph::dijkstra(net, root, direction)).first;
    }
    return it->second;
  };

  // Collect (node, flow, detour) triples over shortest-path-DAG membership.
  struct Triple {
    graph::NodeId node;
    traffic::NodeIncidence incidence;
  };
  std::vector<Triple> triples;
  vehicles_at_node_.assign(n, 0.0);
  for (traffic::FlowIndex f = 0; f < flows_.size(); ++f) {
    const traffic::TrafficFlow& flow = flows_[f];
    const graph::ShortestPathTree& fwd =
        cached_tree(from_origin, flow.origin, graph::Direction::kForward);
    const graph::ShortestPathTree& rev = cached_tree(
        to_destination, flow.destination, graph::Direction::kReverse);
    const double total = fwd.distance(flow.destination);
    if (total == graph::kUnreachable) continue;  // isolated OD: unreachable
    const double shop_to_dest = shop_trees.from_shop()[flow.destination];
    for (graph::NodeId v = 0; v < n; ++v) {
      const double a = fwd.distance(v);
      const double b = rev.distance(v);
      if (a == graph::kUnreachable || b == graph::kUnreachable) continue;
      if (a + b > total + kTol * (1.0 + total)) continue;  // not on the DAG
      vehicles_at_node_[v] += flow.daily_vehicles;
      triples.push_back({v,
                         {f, traffic::detour_distance(shop_trees.to_shop()[v],
                                                      shop_to_dest, b)}});
    }
  }

  node_start_.assign(n + 1, 0);
  for (const Triple& t : triples) ++node_start_[t.node + 1];
  for (std::size_t v = 1; v <= n; ++v) node_start_[v] += node_start_[v - 1];
  node_entries_.resize(triples.size());
  std::vector<std::uint32_t> cursor(node_start_.begin(), node_start_.end() - 1);
  for (const Triple& t : triples) {
    node_entries_[cursor[t.node]++] = t.incidence;
  }
}

std::span<const traffic::NodeIncidence> FlexibleProblem::reach_at(
    graph::NodeId node) const {
  net_->check_node(node);
  return {node_entries_.data() + node_start_[node],
          node_entries_.data() + node_start_[node + 1]};
}

double FlexibleProblem::customers(traffic::FlowIndex flow,
                                  double detour) const {
  if (flow >= flows_.size()) {
    throw std::out_of_range("FlexibleProblem::customers: bad flow index");
  }
  if (std::isinf(detour)) return 0.0;
  const traffic::TrafficFlow& f = flows_[flow];
  return utility_->probability(detour, f.alpha) * f.population();
}

double FlexibleProblem::passing_vehicles(graph::NodeId node) const {
  net_->check_node(node);
  return vehicles_at_node_[node];
}

std::size_t FlexibleProblem::passing_flow_count(graph::NodeId node) const {
  net_->check_node(node);
  return node_start_[node + 1] - node_start_[node];
}

}  // namespace rap::manhattan
