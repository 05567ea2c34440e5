#include "src/graph/road_network.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace rap::graph {

geo::BBox RoadNetwork::bounds() const {
  geo::BBox box;
  for (const geo::Point& p : positions_) box.expand(p);
  return box;
}

// Counting sort by endpoint: each node's list keeps ascending edge-id order,
// which fixes the order Dijkstra relaxes edges in and so its tie-breaks.
template <typename Entry, typename MakeEntry>
RoadNetwork::Adjacency<Entry> RoadNetwork::build_adjacency(
    NodeId Edge::*end, MakeEntry entry) const {
  Adjacency<Entry> adj;
  adj.start.assign(positions_.size() + 1, 0);
  for (const Edge& e : edges_) ++adj.start[e.*end + 1];
  for (std::size_t i = 1; i < adj.start.size(); ++i) {
    adj.start[i] += adj.start[i - 1];
  }
  adj.entries.resize(edges_.size());
  std::vector<std::uint32_t> cursor(adj.start.begin(), adj.start.end() - 1);
  for (EdgeId id = 0; id < edges_.size(); ++id) {
    adj.entries[cursor[edges_[id].*end]++] = entry(id);
  }
  return adj;
}

RoadNetwork::RoadNetwork(std::vector<geo::Point> positions,
                         std::vector<Edge> edges)
    : positions_(std::move(positions)),
      edges_(std::move(edges)),
      out_(build_adjacency<OutEdge>(&Edge::from,
                                    [this](EdgeId id) {
                                      return OutEdge{id, edges_[id].to};
                                    })),
      in_(build_adjacency<EdgeId>(&Edge::to, [](EdgeId id) { return id; })) {}

NodeId NetworkBuilder::add_node(geo::Point position) {
  if (!std::isfinite(position.x) || !std::isfinite(position.y)) {
    throw std::invalid_argument(
        "RoadNetwork::add_node: coordinates must be finite");
  }
  positions_.push_back(position);
  return static_cast<NodeId>(positions_.size() - 1);
}

EdgeId NetworkBuilder::add_edge(NodeId from, NodeId to, double length) {
  check_node(from);
  check_node(to);
  if (from == to) {
    throw std::invalid_argument("RoadNetwork::add_edge: self-loop");
  }
  if (!(length > 0.0) || !std::isfinite(length)) {
    throw std::invalid_argument(
        "RoadNetwork::add_edge: length must be finite and > 0");
  }
  edges_.push_back(Edge{from, to, length});
  return static_cast<EdgeId>(edges_.size() - 1);
}

EdgeId NetworkBuilder::add_two_way_edge(NodeId a, NodeId b, double length) {
  const EdgeId forward = add_edge(a, b, length);
  add_edge(b, a, length);
  return forward;
}

geo::Point NetworkBuilder::position(NodeId node) const {
  check_node(node);
  return positions_[node];
}

RoadNetwork NetworkBuilder::build() && {
  return RoadNetwork(std::move(positions_), std::move(edges_));
}

void NetworkBuilder::check_node(NodeId node) const {
  if (node >= positions_.size()) {
    throw std::out_of_range("RoadNetwork: bad node id");
  }
}

RoadNetwork induced_subnetwork(const RoadNetwork& net,
                               std::span<const NodeId> keep) {
  NetworkBuilder out;
  std::vector<NodeId> remap(net.num_nodes(), kInvalidNode);
  for (const NodeId old_id : keep) {
    remap[old_id] = out.add_node(net.position(old_id));
  }
  for (const Edge& e : net.edges()) {
    if (remap[e.from] != kInvalidNode && remap[e.to] != kInvalidNode) {
      out.add_edge(remap[e.from], remap[e.to], e.length);
    }
  }
  return std::move(out).build();
}

namespace {

// Iterative Tarjan SCC (explicit stack to survive deep graphs).
class TarjanScc {
 public:
  explicit TarjanScc(const RoadNetwork& net) : net_(net) {
    const auto n = net.num_nodes();
    index_.assign(n, kUnvisited);
    lowlink_.assign(n, 0);
    on_stack_.assign(n, false);
    component_.assign(n, kUnvisited);
    for (NodeId v = 0; v < n; ++v) {
      if (index_[v] == kUnvisited) run_from(v);
    }
  }

  [[nodiscard]] const std::vector<std::uint32_t>& components() const noexcept {
    return component_;
  }
  [[nodiscard]] std::uint32_t component_count() const noexcept {
    return next_component_;
  }

 private:
  static constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};

  struct Frame {
    NodeId node;
    std::size_t next_edge = 0;
  };

  void run_from(NodeId root) {
    std::vector<Frame> frames{{root}};
    visit(root);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const auto out = net_.out_edges(frame.node);
      if (frame.next_edge < out.size()) {
        const NodeId next = out[frame.next_edge++].to;
        if (index_[next] == kUnvisited) {
          visit(next);
          frames.push_back({next});
        } else if (on_stack_[next]) {
          lowlink_[frame.node] = std::min(lowlink_[frame.node], index_[next]);
        }
        continue;
      }
      if (lowlink_[frame.node] == index_[frame.node]) {
        for (;;) {
          const NodeId w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = false;
          component_[w] = next_component_;
          if (w == frame.node) break;
        }
        ++next_component_;
      }
      const NodeId finished = frame.node;
      frames.pop_back();
      if (!frames.empty()) {
        lowlink_[frames.back().node] =
            std::min(lowlink_[frames.back().node], lowlink_[finished]);
      }
    }
  }

  void visit(NodeId v) {
    index_[v] = next_index_;
    lowlink_[v] = next_index_;
    ++next_index_;
    stack_.push_back(v);
    on_stack_[v] = true;
  }

  const RoadNetwork& net_;
  std::vector<std::uint32_t> index_;
  std::vector<std::uint32_t> lowlink_;
  std::vector<bool> on_stack_;
  std::vector<NodeId> stack_;
  std::vector<std::uint32_t> component_;
  std::uint32_t next_index_ = 0;
  std::uint32_t next_component_ = 0;
};

}  // namespace

bool RoadNetwork::is_strongly_connected() const {
  if (num_nodes() <= 1) return true;
  return TarjanScc(*this).component_count() == 1;
}

std::vector<NodeId> RoadNetwork::largest_scc() const {
  if (num_nodes() == 0) return {};
  const TarjanScc scc(*this);
  std::vector<std::size_t> sizes(scc.component_count(), 0);
  for (const std::uint32_t c : scc.components()) ++sizes[c];
  const auto best = static_cast<std::uint32_t>(std::distance(
      sizes.begin(), std::max_element(sizes.begin(), sizes.end())));
  std::vector<NodeId> out;
  out.reserve(sizes[best]);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (scc.components()[v] == best) out.push_back(v);
  }
  return out;
}

}  // namespace rap::graph
