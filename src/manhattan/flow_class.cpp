#include "src/manhattan/flow_class.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rap::manhattan {
namespace {

bool is_boundary(const GridScenario& s, citygen::GridCoord c) {
  const std::size_t last = s.n() - 1;
  return c.col == 0 || c.col == last || c.row == 0 || c.row == last;
}

// Slab (Liang-Barsky) clip: parameter range [t0, t1] of segment a+t(b-a)
// inside the box; empty when t0 > t1.
struct ClipResult {
  double t_in = 0.0;
  double t_out = 1.0;
  bool hit = false;
};

ClipResult clip_segment(const geo::Point& a, const geo::Point& b,
                        const geo::BBox& box) {
  double t0 = 0.0;
  double t1 = 1.0;
  const double d[2] = {b.x - a.x, b.y - a.y};
  const double lo[2] = {box.min().x, box.min().y};
  const double hi[2] = {box.max().x, box.max().y};
  const double p[2] = {a.x, a.y};
  for (int axis = 0; axis < 2; ++axis) {
    if (d[axis] == 0.0) {
      if (p[axis] < lo[axis] || p[axis] > hi[axis]) return {};
      continue;
    }
    double ta = (lo[axis] - p[axis]) / d[axis];
    double tb = (hi[axis] - p[axis]) / d[axis];
    if (ta > tb) std::swap(ta, tb);
    t0 = std::max(t0, ta);
    t1 = std::min(t1, tb);
    if (t0 > t1) return {};
  }
  return {t0, t1, true};
}

RegionEdge nearest_edge(const geo::Point& p, const geo::BBox& box) {
  const double d_west = std::abs(p.x - box.min().x);
  const double d_east = std::abs(p.x - box.max().x);
  const double d_south = std::abs(p.y - box.min().y);
  const double d_north = std::abs(p.y - box.max().y);
  const double best = std::min({d_west, d_east, d_south, d_north});
  if (best == d_west) return RegionEdge::kWest;
  if (best == d_east) return RegionEdge::kEast;
  if (best == d_south) return RegionEdge::kSouth;
  return RegionEdge::kNorth;
}

bool horizontal_entryway(RegionEdge e) noexcept {
  // Crossing the west/east edge means travelling along a horizontal street.
  return e == RegionEdge::kWest || e == RegionEdge::kEast;
}

}  // namespace

GridFlowClass classify_grid_flow(const GridScenario& scenario,
                                 const GridFlow& flow) {
  if (!is_boundary(scenario, flow.entry) || !is_boundary(scenario, flow.exit)) {
    throw std::invalid_argument(
        "classify_grid_flow: entry/exit must be boundary intersections");
  }
  const std::size_t last = scenario.n() - 1;
  const citygen::GridCoord entry = flow.entry;
  const citygen::GridCoord exit = flow.exit;

  const bool straight_horizontal =
      entry.row == exit.row &&
      ((entry.col == 0 && exit.col == last) || (entry.col == last && exit.col == 0));
  const bool straight_vertical =
      entry.col == exit.col &&
      ((entry.row == 0 && exit.row == last) || (entry.row == last && exit.row == 0));
  if (straight_horizontal || straight_vertical) return GridFlowClass::kStraight;

  // Orientation sets: west/east boundary -> horizontal street; south/north
  // boundary -> vertical street. Corners belong to both, which makes the
  // turned test lenient there (any corner flow can be read as turned).
  const auto on_we = [&](citygen::GridCoord c) {
    return c.col == 0 || c.col == last;
  };
  const auto on_sn = [&](citygen::GridCoord c) {
    return c.row == 0 || c.row == last;
  };
  const bool turned = (on_we(entry) && on_sn(exit)) || (on_sn(entry) && on_we(exit));
  return turned ? GridFlowClass::kTurned : GridFlowClass::kOther;
}

RegionTransit region_transit(const graph::RoadNetwork& net,
                             std::span<const graph::NodeId> path,
                             const geo::BBox& region) {
  RegionTransit out;
  if (path.size() < 2 || region.empty()) return out;
  if (region.contains(net.position(path.front())) ||
      region.contains(net.position(path.back()))) {
    return out;  // starts or ends inside: does not *cross* the region
  }

  bool entered = false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const geo::Point a = net.position(path[i]);
    const geo::Point b = net.position(path[i + 1]);
    const ClipResult clip = clip_segment(a, b, region);
    if (!clip.hit) continue;
    const geo::Point in_point = lerp(a, b, clip.t_in);
    const geo::Point out_point = lerp(a, b, clip.t_out);
    if (!entered) {
      entered = true;
      out.entry = in_point;
      out.entry_edge = nearest_edge(in_point, region);
    }
    // Keep updating: the last segment that leaves the box wins.
    if (clip.t_out < 1.0 || !region.contains(b)) {
      out.exit = out_point;
      out.exit_edge = nearest_edge(out_point, region);
      out.crosses = true;
    }
  }
  if (!entered) return {};
  return out;
}

GridFlowClass classify_path_region(const graph::RoadNetwork& net,
                                   std::span<const graph::NodeId> path,
                                   const geo::BBox& region,
                                   double alignment_tol) {
  if (alignment_tol < 0.0) {
    throw std::invalid_argument("classify_path_region: alignment_tol < 0");
  }
  const RegionTransit transit = region_transit(net, path, region);
  if (!transit.crosses) return GridFlowClass::kOther;

  const bool entry_h = horizontal_entryway(transit.entry_edge);
  const bool exit_h = horizontal_entryway(transit.exit_edge);
  if (entry_h != exit_h) return GridFlowClass::kTurned;

  if (transit.entry_edge != transit.exit_edge) {
    // Opposite edges with the same orientation: straight when the crossing
    // stays on (nearly) one street.
    const double drift = entry_h ? std::abs(transit.entry.y - transit.exit.y)
                                 : std::abs(transit.entry.x - transit.exit.x);
    if (drift <= alignment_tol) return GridFlowClass::kStraight;
  }
  return GridFlowClass::kOther;
}

}  // namespace rap::manhattan
