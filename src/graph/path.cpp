#include "src/graph/path.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rap::graph {
namespace {

// Length of the shortest edge from -> to, or infinity if absent.
double direct_edge_length(const RoadNetwork& net, NodeId from, NodeId to) {
  double best = std::numeric_limits<double>::infinity();
  for (const OutEdge& e : net.out_edges(from)) {
    if (e.to == to) best = std::min(best, net.edge(e.id).length);
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
  std::vector<double> out(path.size());
  if (!cumulative_lengths(net, path, out)) {
    throw std::invalid_argument("cumulative_lengths: not a walk");
  }
  return out;
}

bool cumulative_lengths(const RoadNetwork& net, std::span<const NodeId> path,
                        std::span<double> out) {
  if (out.size() != path.size()) {
    throw std::invalid_argument("cumulative_lengths: output size mismatch");
  }
  if (path.empty() || path.front() >= net.num_nodes()) return false;
  out[0] = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const double step = direct_edge_length(net, path[i - 1], path[i]);
    if (!std::isfinite(step)) return false;
    out[i] = out[i - 1] + step;
  }
  return true;
}

}  // namespace rap::graph
