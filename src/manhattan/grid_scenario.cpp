#include "src/manhattan/grid_scenario.h"

#include <algorithm>
#include <stdexcept>

#include "src/graph/dijkstra.h"
#include "src/traffic/detour.h"

namespace rap::manhattan {
namespace {

// Share of generated flows drawn straight across one street.
constexpr double kStraightFraction = 0.3;

double l1(citygen::GridCoord a, citygen::GridCoord b, double spacing) noexcept {
  const auto diff = [](std::size_t x, std::size_t y) {
    return static_cast<double>(x > y ? x - y : y - x);
  };
  return spacing * (diff(a.col, b.col) + diff(a.row, b.row));
}

bool within(std::size_t v, std::size_t a, std::size_t b) noexcept {
  return v >= std::min(a, b) && v <= std::max(a, b);
}

}  // namespace

GridScenario::GridScenario(std::size_t n, double spacing)
    : n_(n),
      spacing_(spacing),
      city_(citygen::GridSpec{n, n, spacing, {0.0, 0.0}}),
      shop_{n / 2, n / 2} {
  if (n < 3 || n % 2 == 0) {
    throw std::invalid_argument("GridScenario: n must be odd and >= 3");
  }
}

graph::NodeId GridScenario::shop_node() const { return city_.node_at(shop_); }

bool GridScenario::on_some_shortest_path(citygen::GridCoord entry,
                                         citygen::GridCoord exit,
                                         citygen::GridCoord v) noexcept {
  // On a full grid, every monotone staircase within the bounding rectangle
  // is a shortest path, and nothing outside the rectangle can be on one.
  return within(v.col, entry.col, exit.col) && within(v.row, entry.row, exit.row);
}

double GridScenario::detour_at(citygen::GridCoord v,
                               citygen::GridCoord exit) const noexcept {
  return traffic::detour_distance(l1(v, shop_, spacing_),
                                  l1(shop_, exit, spacing_),
                                  l1(v, exit, spacing_));
}

double GridScenario::best_detour(
    const GridFlow& flow, std::span<const graph::NodeId> placement) const {
  double best = graph::kUnreachable;
  for (const graph::NodeId node : placement) {
    const citygen::GridCoord coord = city_.coord_of(node);
    if (!on_some_shortest_path(flow.entry, flow.exit, coord)) continue;
    best = std::min(best, detour_at(coord, flow.exit));
  }
  return best;
}

double GridScenario::evaluate(std::span<const GridFlow> flows,
                              std::span<const graph::NodeId> placement,
                              const traffic::UtilityFunction& utility) const {
  double total = 0.0;
  for (const GridFlow& flow : flows) {
    const double detour = best_detour(flow, placement);
    if (detour == graph::kUnreachable) continue;
    total += utility.probability(detour, flow.alpha) * flow.population();
  }
  return total;
}

std::vector<citygen::GridCoord> GridScenario::boundary_coords() const {
  std::vector<citygen::GridCoord> out;
  for (std::size_t c = 0; c < n_; ++c) {
    out.push_back({c, 0});
    out.push_back({c, n_ - 1});
  }
  for (std::size_t r = 1; r + 1 < n_; ++r) {
    out.push_back({0, r});
    out.push_back({n_ - 1, r});
  }
  return out;
}

std::vector<GridFlow> generate_grid_flows(const GridScenario& scenario,
                                          const GridFlowGenSpec& spec,
                                          util::Rng& rng) {
  if (spec.count == 0) {
    throw std::invalid_argument("generate_grid_flows: count must be > 0");
  }
  const std::vector<citygen::GridCoord> boundary = scenario.boundary_coords();
  const std::size_t last = scenario.n() - 1;
  std::vector<GridFlow> flows;
  flows.reserve(spec.count);
  while (flows.size() < spec.count) {
    citygen::GridCoord entry;
    citygen::GridCoord exit;
    if (rng.next_bool(kStraightFraction)) {
      // Arterial through-traffic: straight across one street.
      const std::size_t lane = rng.next_below(scenario.n());
      const bool horizontal = rng.next_bool(0.5);
      const bool forward = rng.next_bool(0.5);
      entry = horizontal ? citygen::GridCoord{forward ? 0 : last, lane}
                         : citygen::GridCoord{lane, forward ? 0 : last};
      exit = horizontal ? citygen::GridCoord{forward ? last : 0, lane}
                        : citygen::GridCoord{lane, forward ? last : 0};
    } else {
      entry = boundary[rng.next_below(boundary.size())];
      exit = boundary[rng.next_below(boundary.size())];
    }
    if (entry == exit) continue;
    GridFlow flow;
    flow.entry = entry;
    flow.exit = exit;
    flow.daily_vehicles =
        static_cast<double>(1 + rng.next_poisson(spec.mean_vehicles));
    flow.passengers_per_vehicle = spec.passengers_per_vehicle;
    flow.alpha = spec.alpha;
    flows.push_back(flow);
  }
  return flows;
}

}  // namespace rap::manhattan
