// Directed road network: intersections (nodes with planar coordinates) and
// streets (directed weighted edges). Two-way streets are a pair of directed
// edges; one-way streets a single edge — matching Section III-A of the paper
// ("one-way and two-way streets").
//
// A NetworkBuilder assembles the graph and checks each node and edge as it
// is added; build() freezes it into a RoadNetwork, whose constructor makes
// the out and in adjacency (CSR) once. The out CSR holds each edge's head
// beside its id (8 B per edge instead of 4), so a path walk scans one
// array for the next node. A RoadNetwork is immutable after build(), so
// concurrent reads need no synchronisation.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/geo/bbox.h"
#include "src/geo/point.h"

namespace rap::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = ~NodeId{0};

struct Edge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double length = 0.0;
};

/// An entry of the out adjacency: the edge's head stored beside its id, so
/// a walk step finds the edge to the next node in this one array and reads
/// the edge record only for the match.
struct OutEdge {
  EdgeId id = 0;
  NodeId to = kInvalidNode;
};

class RoadNetwork {
 public:
  /// The empty network.
  RoadNetwork() = default;

  [[nodiscard]] std::size_t num_nodes() const noexcept { return positions_.size(); }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  [[nodiscard]] geo::Point position(NodeId node) const {
    check_node(node);
    return positions_[node];
  }
  [[nodiscard]] const std::vector<geo::Point>& positions() const noexcept {
    return positions_;
  }
  [[nodiscard]] const Edge& edge(EdgeId id) const {
    if (id >= edges_.size()) {
      throw std::out_of_range("RoadNetwork::edge: bad edge id");
    }
    return edges_[id];
  }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Outgoing edges of a node (id and head), in ascending id order.
  [[nodiscard]] std::span<const OutEdge> out_edges(NodeId node) const {
    check_node(node);
    return out_.of(node);
  }
  /// Incoming edge ids of a node (for reverse Dijkstra), ascending.
  [[nodiscard]] std::span<const EdgeId> in_edges(NodeId node) const {
    check_node(node);
    return in_.of(node);
  }

  /// Bounding box of all node positions.
  [[nodiscard]] geo::BBox bounds() const;

  /// True if every node can reach every other node (strong connectivity).
  [[nodiscard]] bool is_strongly_connected() const;

  /// Ids of all nodes in the largest strongly connected component.
  [[nodiscard]] std::vector<NodeId> largest_scc() const;

  /// Validates a node id, throwing std::out_of_range on failure.
  void check_node(NodeId node) const {
    if (node >= positions_.size()) {
      throw std::out_of_range("RoadNetwork: bad node id");
    }
  }

 private:
  friend class NetworkBuilder;

  template <typename Entry>
  struct Adjacency {
    std::vector<std::uint32_t> start;  // CSR offsets, size num_nodes+1
    std::vector<Entry> entries;

    [[nodiscard]] std::span<const Entry> of(NodeId node) const {
      return {entries.data() + start[node], entries.data() + start[node + 1]};
    }
  };

  /// Takes checked nodes and edges (NetworkBuilder's) and indexes them.
  RoadNetwork(std::vector<geo::Point> positions, std::vector<Edge> edges);

  /// The CSR of the edges keyed by `NodeId Edge::*end`, each made into an
  /// entry by `entry(id)`.
  template <typename Entry, typename MakeEntry>
  [[nodiscard]] Adjacency<Entry> build_adjacency(NodeId Edge::*end,
                                                 MakeEntry entry) const;

  std::vector<geo::Point> positions_;
  std::vector<Edge> edges_;
  Adjacency<OutEdge> out_;
  Adjacency<EdgeId> in_;
};

/// Assembles a RoadNetwork node by node and edge by edge.
class NetworkBuilder {
 public:
  /// Adds an intersection at `position`; returns its id (ids are dense,
  /// starting at 0). Throws on a non-finite coordinate.
  NodeId add_node(geo::Point position);

  /// Adds a one-way street. Throws on invalid endpoints, self-loops, or
  /// non-positive / non-finite length.
  EdgeId add_edge(NodeId from, NodeId to, double length);

  /// Adds a two-way street (two directed edges of equal length); returns the
  /// id of the forward edge (the backward edge is the next id).
  EdgeId add_two_way_edge(NodeId a, NodeId b, double length);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return positions_.size(); }
  [[nodiscard]] geo::Point position(NodeId node) const;

  /// Moves the nodes and edges into a RoadNetwork.
  [[nodiscard]] RoadNetwork build() &&;

 private:
  void check_node(NodeId node) const;

  std::vector<geo::Point> positions_;
  std::vector<Edge> edges_;
};

/// The subnetwork induced by `keep`, an ascending list of node ids of `net`:
/// new node i is `keep[i]`, and the edges between kept nodes keep their
/// order.
[[nodiscard]] RoadNetwork induced_subnetwork(const RoadNetwork& net,
                                             std::span<const NodeId> keep);

}  // namespace rap::graph
