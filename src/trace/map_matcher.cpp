#include "src/trace/map_matcher.h"

#include <stdexcept>

#include "src/graph/dijkstra.h"

namespace rap::trace {
namespace {

constexpr double kDefaultCell = 500.0;

double pick_cell_size(const graph::RoadNetwork& net, double snap_radius) {
  // A cell around the snap radius keeps ring searches short; fall back to a
  // constant for degenerate bounds.
  if (net.num_nodes() == 0) return kDefaultCell;
  return snap_radius > 0.0 ? snap_radius : kDefaultCell;
}

}  // namespace

MapMatcher::MapMatcher(const graph::RoadNetwork& net, double snap_radius)
    : net_(&net),
      snap_radius_(snap_radius),
      index_(net.positions(), pick_cell_size(net, snap_radius)) {
  if (!(snap_radius > 0.0)) {
    throw std::invalid_argument("MapMatcher: snap_radius must be > 0");
  }
}

std::optional<graph::NodeId> MapMatcher::snap(const geo::Point& p) const {
  const auto idx = index_.nearest_within(p, snap_radius_);
  if (!idx) return std::nullopt;
  return static_cast<graph::NodeId>(*idx);
}

std::vector<graph::NodeId> MapMatcher::match_run(
    std::span<const TraceRecord> run) const {
  // Snap, collapse consecutive duplicates, and cancel immediate ping-pongs
  // (A B A -> A): GPS noise near a snap boundary otherwise manufactures
  // back-and-forth segments that inflate the walk far beyond the real route.
  std::vector<graph::NodeId> snapped;
  snapped.reserve(run.size());
  for (const TraceRecord& record : run) {
    const auto node = snap(record.position);
    if (!node) continue;
    if (!snapped.empty() && snapped.back() == *node) continue;
    if (snapped.size() >= 2 && snapped[snapped.size() - 2] == *node) {
      snapped.pop_back();
      continue;
    }
    snapped.push_back(*node);
  }
  if (snapped.empty()) return {};

  // Stitch into a walk: insert shortest paths where no direct street exists.
  std::vector<graph::NodeId> walk{snapped.front()};
  for (std::size_t i = 1; i < snapped.size(); ++i) {
    const graph::NodeId prev = walk.back();
    const graph::NodeId next = snapped[i];
    if (prev == next) continue;  // can happen after a stitched segment
    bool direct = false;
    for (const graph::OutEdge& e : net_->out_edges(prev)) {
      if (e.to == next) {
        direct = true;
        break;
      }
    }
    if (direct) {
      walk.push_back(next);
      continue;
    }
    const auto bridge = graph::shortest_path(*net_, prev, next);
    if (!bridge) return {};  // disconnected snap: give up on this run
    walk.insert(walk.end(), bridge->begin() + 1, bridge->end());
  }
  return walk;
}

}  // namespace rap::trace
