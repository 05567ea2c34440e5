// The Section IV world: a D x D Manhattan grid region with the shop at its
// centre. Traffic flows cross the region between boundary intersections
// along *any* of their shortest (staircase) paths, and will choose a path
// through a RAP to collect the free advertisement — so a RAP reaches a flow
// iff it lies inside the flow's bounding rectangle (the exact
// some-shortest-path test on a full grid).
#pragma once

#include <span>
#include <vector>

#include "src/citygen/grid_city.h"
#include "src/traffic/utility.h"
#include "src/util/rng.h"

namespace rap::manhattan {

/// A flow crossing the grid region: boundary entry and exit intersections.
struct GridFlow {
  citygen::GridCoord entry;
  citygen::GridCoord exit;
  double daily_vehicles = 0.0;
  double passengers_per_vehicle = 1.0;
  double alpha = 1.0;

  [[nodiscard]] double population() const noexcept {
    return daily_vehicles * passengers_per_vehicle;
  }
};

class GridScenario {
 public:
  /// An n x n grid with `spacing` between intersections; the shop sits at
  /// the centre intersection. n must be odd (so a centre exists) and >= 3.
  GridScenario(std::size_t n, double spacing);

  [[nodiscard]] const citygen::GridCity& city() const noexcept { return city_; }
  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] double spacing() const noexcept { return spacing_; }
  /// Side length of the region — the paper's D.
  [[nodiscard]] double side() const noexcept {
    return spacing_ * static_cast<double>(n_ - 1);
  }
  [[nodiscard]] citygen::GridCoord shop_coord() const noexcept { return shop_; }
  [[nodiscard]] graph::NodeId shop_node() const;

  /// True iff `v` lies on some shortest entry->exit staircase path
  /// (bounding-rectangle test).
  [[nodiscard]] static bool on_some_shortest_path(citygen::GridCoord entry,
                                                  citygen::GridCoord exit,
                                                  citygen::GridCoord v) noexcept;

  /// Detour distance for a flow exiting at `exit` if the advertisement is
  /// received at `v`: L1(v, shop) + L1(shop, exit) - L1(v, exit).
  [[nodiscard]] double detour_at(citygen::GridCoord v,
                                 citygen::GridCoord exit) const noexcept;

  /// Minimum detour the placement offers the flow over all reachable RAPs
  /// (kUnreachable when no RAP lies on any of the flow's shortest paths).
  [[nodiscard]] double best_detour(const GridFlow& flow,
                                   std::span<const graph::NodeId> placement) const;

  /// Expected attracted customers of a placement under route-aware
  /// evaluation.
  [[nodiscard]] double evaluate(std::span<const GridFlow> flows,
                                std::span<const graph::NodeId> placement,
                                const traffic::UtilityFunction& utility) const;

  /// All boundary intersections (the possible flow endpoints).
  [[nodiscard]] std::vector<citygen::GridCoord> boundary_coords() const;

 private:
  std::size_t n_;
  double spacing_;
  citygen::GridCity city_;
  citygen::GridCoord shop_;
};

struct GridFlowGenSpec {
  std::size_t count = 50;
  double mean_vehicles = 20.0;  ///< daily vehicles ~ 1 + Poisson(mean)
  double passengers_per_vehicle = 200.0;
  double alpha = 0.001;
};

/// Random boundary-to-boundary flows (entry != exit, not on the same
/// boundary point), deterministic from `rng`. 30% of them are drawn
/// straight across one street (arterial through-traffic); the rest are
/// uniform boundary-to-boundary pairs.
[[nodiscard]] std::vector<GridFlow> generate_grid_flows(
    const GridScenario& scenario, const GridFlowGenSpec& spec, util::Rng& rng);

}  // namespace rap::manhattan
