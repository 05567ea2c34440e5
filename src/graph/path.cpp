#include "src/graph/path.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace rap::graph {
namespace {

// Length of the shortest edge from -> to, or infinity if absent.
double direct_edge_length(const RoadNetwork& net, NodeId from, NodeId to) {
  double best = std::numeric_limits<double>::infinity();
  for (const EdgeId id : net.out_edges(from)) {
    const Edge& e = net.edge(id);
    if (e.to == to && e.length < best) best = e.length;
  }
  return best;
}

}  // namespace

// Only the first node of a walk needs a range check: each later one is the
// head of an edge out of a valid node, or the step fails.
bool is_walk(const RoadNetwork& net, std::span<const NodeId> path) {
  if (path.empty() || path.front() >= net.num_nodes()) return false;
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (!std::isfinite(direct_edge_length(net, path[i - 1], path[i]))) {
      return false;
    }
  }
  return true;
}

std::vector<double> cumulative_lengths(const RoadNetwork& net,
                                       std::span<const NodeId> path) {
  bool walk = !path.empty() && path.front() < net.num_nodes();
  std::vector<double> out(path.size(), 0.0);
  for (std::size_t i = 1; walk && i < path.size(); ++i) {
    const double step = direct_edge_length(net, path[i - 1], path[i]);
    walk = std::isfinite(step);
    out[i] = out[i - 1] + step;
  }
  if (!walk) throw std::invalid_argument("cumulative_lengths: not a walk");
  return out;
}

}  // namespace rap::graph
