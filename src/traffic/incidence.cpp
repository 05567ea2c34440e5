#include "src/traffic/incidence.h"

#include <algorithm>
#include <stdexcept>

namespace rap::traffic {

IncidenceIndex::IncidenceIndex(const graph::RoadNetwork& net,
                               const std::vector<TrafficFlow>& flows,
                               const DetourSource& detours, double max_detour)
    : num_flows_(flows.size()) {
  const std::size_t n = net.num_nodes();
  constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
  std::vector<std::uint32_t> last_flow(n, kUnseen);  // last flow stamped at v
  std::vector<std::uint32_t> staged_at(n);  // v's staged entry for that flow
  flow_count_.assign(n, 0);
  vehicles_at_node_.assign(n, 0.0);

  // Price each flow once and stage its distinct path nodes flow-major. The
  // pass counts and vehicle sums see every distinct node, in ascending flow
  // order; a repeated node keeps the minimum detour over its visits (the
  // first visit, by Theorem 1, on shortest paths; the minimum for
  // robustness on trace paths). Entries beyond max_detour are then dropped.
  struct Staged {  // 16 B: an at_node entry plus its node
    graph::NodeId node;
    FlowIndex flow;
    double detour;
  };
  std::vector<Staged> staged;
  const auto beyond_range = [max_detour](const Staged& s) {
    return !(s.detour <= max_detour);
  };
  for (FlowIndex f = 0; f < flows.size(); ++f) {
    const TrafficFlow& flow = flows[f];
    validate_flow(net, flow);
    const std::vector<double> path_detours = detours.detours_along_path(flow);
    const auto first = static_cast<std::ptrdiff_t>(staged.size());
    for (std::size_t i = 0; i < flow.path.size(); ++i) {
      const graph::NodeId v = flow.path[i];
      if (last_flow[v] == f) {
        double& detour = staged[staged_at[v]].detour;
        detour = std::min(detour, path_detours[i]);
        continue;
      }
      last_flow[v] = f;
      ++flow_count_[v];
      vehicles_at_node_[v] += flow.daily_vehicles;
      staged_at[v] = static_cast<std::uint32_t>(staged.size());
      staged.push_back({v, f, path_detours[i]});
    }
    staged.erase(
        std::remove_if(staged.begin() + first, staged.end(), beyond_range),
        staged.end());
  }

  // Counting-sort the staged entries into the node CSR. They are in
  // ascending flow order, so every at_node list is too.
  node_start_.assign(n + 1, 0);
  for (const Staged& s : staged) ++node_start_[s.node + 1];
  for (std::size_t v = 1; v <= n; ++v) node_start_[v] += node_start_[v - 1];
  node_entries_.resize(staged.size());
  std::vector<std::uint32_t> cursor(node_start_.begin(), node_start_.end() - 1);
  for (const Staged& s : staged) {
    node_entries_[cursor[s.node]++] = NodeIncidence{s.flow, s.detour};
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
  return flow_count_[node];
}

void IncidenceIndex::check_node(graph::NodeId node) const {
  if (node >= num_nodes()) {
    throw std::out_of_range("IncidenceIndex: bad node id");
  }
}

}  // namespace rap::traffic
