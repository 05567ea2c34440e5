#include "src/traffic/incidence.h"

#include <algorithm>
#include <stdexcept>

namespace rap::traffic {

IncidenceIndex::IncidenceIndex(const graph::RoadNetwork& net,
                               const std::vector<TrafficFlow>& flows,
                               const DetourSource& detours)
    : num_flows_(flows.size()) {
  const std::size_t n = net.num_nodes();
  constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
  std::vector<std::uint32_t> last_flow(n, kUnseen);  // last flow stamped at v

  // Pass 1: count each flow's distinct nodes into node_start_[v + 1] and sum
  // the passing vehicles, both in ascending flow order.
  node_start_.assign(n + 1, 0);
  vehicles_at_node_.assign(n, 0.0);
  for (FlowIndex f = 0; f < flows.size(); ++f) {
    const TrafficFlow& flow = flows[f];
    validate_flow(net, flow);
    for (const graph::NodeId v : flow.path) {
      if (last_flow[v] == f) continue;
      last_flow[v] = f;
      ++node_start_[v + 1];
      vehicles_at_node_[v] += flow.daily_vehicles;
    }
  }
  for (std::size_t v = 1; v <= n; ++v) node_start_[v] += node_start_[v - 1];

  // Pass 2: price each flow and fill at per-node cursors. Flows arrive in
  // ascending order, so every at_node list is sorted by flow, and a repeated
  // path node finds its entry for this flow at cursor[v] - 1, where it keeps
  // the minimum detour (the first visit, by Theorem 1, on shortest paths;
  // the minimum for robustness on trace paths).
  node_entries_.resize(node_start_.back());
  std::vector<std::uint32_t> cursor(node_start_.begin(), node_start_.end() - 1);
  std::fill(last_flow.begin(), last_flow.end(), kUnseen);
  for (FlowIndex f = 0; f < flows.size(); ++f) {
    const TrafficFlow& flow = flows[f];
    const std::vector<double> path_detours = detours.detours_along_path(flow);
    for (std::size_t i = 0; i < flow.path.size(); ++i) {
      const graph::NodeId v = flow.path[i];
      if (last_flow[v] == f) {
        double& detour = node_entries_[cursor[v] - 1].detour;
        detour = std::min(detour, path_detours[i]);
        continue;
      }
      last_flow[v] = f;
      node_entries_[cursor[v]++] = NodeIncidence{f, path_detours[i]};
    }
  }
}

std::span<const NodeIncidence> IncidenceIndex::at_node(graph::NodeId node) const {
  check_node(node);
  return {node_entries_.data() + node_start_[node],
          node_entries_.data() + node_start_[node + 1]};
}

double IncidenceIndex::passing_vehicles(graph::NodeId node) const {
  check_node(node);
  return vehicles_at_node_[node];
}

std::size_t IncidenceIndex::passing_flow_count(graph::NodeId node) const {
  check_node(node);
  return node_start_[node + 1] - node_start_[node];
}

void IncidenceIndex::check_node(graph::NodeId node) const {
  if (node >= num_nodes()) {
    throw std::out_of_range("IncidenceIndex: bad node id");
  }
}

}  // namespace rap::traffic
