// Node -> flows incidence index: which flows a RAP at each intersection can
// attract, and at what detour distance. Built once per (network, flows,
// shop) triple, it is the data structure every placement algorithm and
// baseline consumes:
//   * at_node(v)  — the flows passing v whose detour at v is within
//                   `max_detour`, in ascending flow order, each with its
//                   detour distance at v (the marginal-gain scan of
//                   Algorithms 1 and 2),
//   * passing_vehicles / passing_flow_count — every flow physically passing
//     v, whatever its detour (the MaxVehicles and MaxCardinality baseline
//     rankings).
// Every utility is exactly 0 beyond its range D (Eqs. 1, 2 and 11), so a
// problem passes D as `max_detour` and keeps only the (flow, node) pairs a
// RAP can use; graph::kUnreachable keeps every pass. One CSR axis only: a
// flow's own stops are its path, priced by DetourSource::detours_along_path,
// so the index keeps no flow -> nodes copy.
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
  /// Prices every flow once and keeps a (flow, node) entry only when the
  /// flow's minimum detour over its visits to the node is <= `max_detour`.
  /// Validates every flow; throws std::invalid_argument on a bad one.
  IncidenceIndex(const graph::RoadNetwork& net,
                 const std::vector<TrafficFlow>& flows,
                 const DetourSource& detours, double max_detour);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return flow_count_.size();
  }
  [[nodiscard]] std::size_t num_flows() const noexcept { return num_flows_; }
  /// Kept (flow, node) pairs: the total length of every at_node list.
  [[nodiscard]] std::size_t num_entries() const noexcept {
    return node_entries_.size();
  }

  /// Flows passing `node` within `max_detour`, in ascending flow order, each
  /// with its minimum detour distance over the flow's visits to `node`.
  [[nodiscard]] std::span<const NodeIncidence> at_node(graph::NodeId node) const;

  /// Total daily vehicles passing `node` (MaxVehicles ranking).
  [[nodiscard]] double passing_vehicles(graph::NodeId node) const;

  /// Number of distinct flows passing `node` (MaxCardinality ranking),
  /// including those beyond `max_detour`.
  [[nodiscard]] std::size_t passing_flow_count(graph::NodeId node) const;

 private:
  void check_node(graph::NodeId node) const;

  std::size_t num_flows_ = 0;
  std::vector<std::uint32_t> node_start_;  // CSR offsets, size num_nodes+1
  std::vector<NodeIncidence> node_entries_;
  std::vector<std::uint32_t> flow_count_;  // distinct flows passing each node
  std::vector<double> vehicles_at_node_;
};

}  // namespace rap::traffic
