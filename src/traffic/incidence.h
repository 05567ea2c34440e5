// Node -> flows incidence index: which flows pass which intersections and at
// what detour distance. Built once per (network, flows, shop) triple, it is
// the data structure every placement algorithm and baseline consumes:
//   * at_node(v)  — the flows passing v, in ascending flow order, each with
//                   its detour distance at v (the marginal-gain scan of
//                   Algorithms 1 and 2),
//   * passing_vehicles / passing_flow_count — the MaxVehicles and
//     MaxCardinality baseline rankings.
// One CSR axis only: a flow's own stops are its path, priced by
// DetourSource::detours_along_path, so the index keeps no flow -> nodes copy.
#pragma once

#include <span>
#include <vector>

#include "src/traffic/detour.h"
#include "src/traffic/flow.h"

namespace rap::traffic {

struct NodeIncidence {
  FlowIndex flow = 0;
  double detour = graph::kUnreachable;  ///< detour distance of `flow` at this node
};

class IncidenceIndex {
 public:
  /// Validates every flow; throws std::invalid_argument on a bad one.
  IncidenceIndex(const graph::RoadNetwork& net,
                 const std::vector<TrafficFlow>& flows,
                 const DetourSource& detours);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return node_start_.size() - 1;
  }
  [[nodiscard]] std::size_t num_flows() const noexcept { return num_flows_; }
  /// Distinct (flow, node) pairs: the total length of every at_node list.
  [[nodiscard]] std::size_t num_entries() const noexcept {
    return node_entries_.size();
  }

  /// Flows passing `node` in ascending flow order, each with its minimum
  /// detour distance over the flow's visits to `node`.
  [[nodiscard]] std::span<const NodeIncidence> at_node(graph::NodeId node) const;

  /// Total daily vehicles passing `node` (MaxVehicles ranking).
  [[nodiscard]] double passing_vehicles(graph::NodeId node) const;

  /// Number of distinct flows passing `node` (MaxCardinality ranking).
  [[nodiscard]] std::size_t passing_flow_count(graph::NodeId node) const;

 private:
  void check_node(graph::NodeId node) const;

  std::size_t num_flows_ = 0;
  std::vector<std::uint32_t> node_start_;  // CSR offsets, size num_nodes+1
  std::vector<NodeIncidence> node_entries_;
  std::vector<double> vehicles_at_node_;
};

}  // namespace rap::traffic
