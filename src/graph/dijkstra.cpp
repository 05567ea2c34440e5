#include "src/graph/dijkstra.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "src/obs/telemetry.h"

namespace rap::graph {
namespace {

struct QueueEntry {
  double dist;
  NodeId node;
  friend bool operator>(const QueueEntry& a, const QueueEntry& b) noexcept {
    return a.dist > b.dist;
  }
};

using MinQueue =
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>;

struct RunResult {
  std::vector<double> dist;
  std::vector<NodeId> parent;
};

// `target == kInvalidNode` runs to completion; otherwise stops once the
// target is settled.
RunResult run(const RoadNetwork& net, NodeId source, Direction direction,
              NodeId target) {
  net.check_node(source);
  RunResult out;
  out.dist.assign(net.num_nodes(), kUnreachable);
  out.parent.assign(net.num_nodes(), kInvalidNode);
  out.dist[source] = 0.0;

  // Work counters stay plain locals in the loop (an increment each) and
  // flush to the ambient telemetry once per run, so the search itself never
  // touches the registry.
  std::uint64_t settled = 0;
  std::uint64_t pushes = 1;

  MinQueue queue;
  queue.push({0.0, source});
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > out.dist[v]) continue;  // stale entry
    ++settled;
    if (v == target) break;
    const auto relax = [&, d = d, v = v](NodeId next, double length) {
      const double candidate = d + length;
      if (candidate < out.dist[next]) {
        out.dist[next] = candidate;
        out.parent[next] = v;
        queue.push({candidate, next});
        ++pushes;
      }
    };
    if (direction == Direction::kForward) {
      for (const OutEdge& e : net.out_edges(v)) {
        relax(e.to, net.edge(e.id).length);
      }
    } else {
      for (const EdgeId id : net.in_edges(v)) {
        const Edge& e = net.edge(id);
        relax(e.from, e.length);
      }
    }
  }
  if (obs::ambient() != nullptr) {
    obs::add_counter("dijkstra.runs");
    obs::add_counter("dijkstra.nodes_settled", settled);
    obs::add_counter("dijkstra.heap_pushes", pushes);
  }
  return out;
}

}  // namespace

double ShortestPathTree::distance(NodeId node) const {
  if (node >= dist_.size()) {
    throw std::out_of_range("ShortestPathTree::distance: bad node id");
  }
  return dist_[node];
}

bool ShortestPathTree::reachable(NodeId node) const {
  return distance(node) < kUnreachable;
}

std::optional<std::vector<NodeId>> ShortestPathTree::path_to(NodeId node) const {
  if (!reachable(node)) return std::nullopt;
  std::vector<NodeId> chain;
  for (NodeId v = node; v != kInvalidNode; v = parent_[v]) chain.push_back(v);
  // `chain` runs node -> source. Forward trees want source -> node; reverse
  // trees represent travel node -> source, which is already chain order.
  if (direction_ == Direction::kForward) {
    std::reverse(chain.begin(), chain.end());
  }
  return chain;
}

ShortestPathTree dijkstra(const RoadNetwork& net, NodeId source,
                          Direction direction) {
  auto result = run(net, source, direction, kInvalidNode);
  return {source, direction, std::move(result.dist), std::move(result.parent)};
}

double dijkstra_distance(const RoadNetwork& net, NodeId source, NodeId target) {
  net.check_node(target);
  if (source == target) return 0.0;
  return run(net, source, Direction::kForward, target).dist[target];
}

std::optional<std::vector<NodeId>> shortest_path(const RoadNetwork& net,
                                                 NodeId source, NodeId target) {
  net.check_node(target);
  auto result = run(net, source, Direction::kForward, target);
  if (result.dist[target] == kUnreachable) return std::nullopt;
  ShortestPathTree tree(source, Direction::kForward, std::move(result.dist),
                        std::move(result.parent));
  return tree.path_to(target);
}

std::vector<std::vector<double>> floyd_warshall(const RoadNetwork& net) {
  const obs::Span span("floyd_warshall");
  const std::size_t n = net.num_nodes();
  std::vector<std::vector<double>> dist(n,
                                        std::vector<double>(n, kUnreachable));
  for (std::size_t i = 0; i < n; ++i) dist[i][i] = 0.0;
  for (const Edge& e : net.edges()) {
    dist[e.from][e.to] = std::min(dist[e.from][e.to], e.length);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = dist[i][k];
      if (dik == kUnreachable) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double via = dik + dist[k][j];
        if (via < dist[i][j]) dist[i][j] = via;
      }
    }
  }
  return dist;
}

}  // namespace rap::graph
