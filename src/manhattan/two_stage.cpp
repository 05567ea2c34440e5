#include "src/manhattan/two_stage.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/exhaustive.h"
#include "src/core/filtered.h"
#include "src/core/k_policy.h"
#include "src/core/parallel_scan.h"
#include "src/manhattan/flow_class.h"

namespace rap::manhattan {
namespace {

// Stage 2 reads flow f of `flows` as flow f of `model`.
void check_flow_count(const core::CoverageModel& model, std::size_t flows,
                      const char* who) {
  if (flows != model.num_flows()) {
    throw std::invalid_argument(std::string(who) +
                                ": flows.size() != model.num_flows()");
  }
}

// Combination budget for the k <= 4 exhaustive stage; beyond it the
// composite greedy is used instead (documented fallback).
constexpr std::size_t kExhaustiveCap = 200'000;

// Exhaustive optimum when affordable, composite greedy otherwise.
core::PlacementResult small_k_placement(const core::CoverageModel& model,
                                        std::size_t k) {
  if (core::exhaustive_combination_count(model, k) <= kExhaustiveCap) {
    return core::exhaustive_optimal_placement(model, k, {kExhaustiveCap});
  }
  return core::composite_greedy_placement(model, k);
}

// Greedily extends `state` by up to `budget` RAPs maximising the marginal
// gain on `model`; stops when nothing gains. Used with the straight-flow
// filter for stage 2 and with the full model for the leftover budget.
void greedy_extend(const core::CoverageModel& model,
                   core::PlacementState& state, std::size_t budget) {
  const auto n = static_cast<graph::NodeId>(model.num_nodes());
  for (std::size_t step = 0; step < budget; ++step) {
    const core::detail::ScanBest best = core::detail::best_unplaced(
        state, n, [&](graph::NodeId v) { return state.gain_if_added(v); });
    if (best.score <= 0.0) break;
    state.add(best.node);
  }
}

// Mask of straight flows on the ideal grid.
std::vector<bool> straight_mask_grid(const GridScenario& scenario,
                                     std::span<const GridFlow> flows) {
  std::vector<bool> mask(flows.size(), false);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    mask[f] =
        classify_grid_flow(scenario, flows[f]) == GridFlowClass::kStraight;
  }
  return mask;
}

// Cross-axis tolerance when judging a real network flow "straight", as an
// absolute distance (about half a block).
constexpr double kAlignmentTol = 300.0;

// Mask of straight flows judged by region crossing on the real network.
std::vector<bool> straight_mask_network(
    const graph::RoadNetwork& net, std::span<const traffic::TrafficFlow> flows,
    const geo::BBox& region) {
  std::vector<bool> mask(flows.size(), false);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    mask[f] = classify_path_region(net, flows[f].path, region, kAlignmentTol) ==
              GridFlowClass::kStraight;
  }
  return mask;
}

graph::NodeId nearest_node(const graph::RoadNetwork& net, geo::Point target) {
  graph::NodeId best = graph::kInvalidNode;
  double best_dist = std::numeric_limits<double>::infinity();
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
    const double d = geo::squared_distance(net.position(v), target);
    if (d < best_dist) {
      best_dist = d;
      best = v;
    }
  }
  return best;
}

// Stage 2 and the finish: from the stage-1 RAPs in `state`, greedily
// covers the flows `straight_flows` marks, re-values that placement on the
// full model and optionally spends any leftover budget there.
core::PlacementResult finish(const core::CoverageModel& model,
                             const core::PlacementState& state,
                             const std::vector<bool>& straight_flows,
                             std::size_t k, const TwoStageOptions& options) {
  const core::FilteredCoverageModel straight(model, straight_flows);
  core::PlacementState straight_state(straight);
  for (const graph::NodeId v : state.placement()) straight_state.add(v);
  greedy_extend(straight, straight_state, k - state.placement().size());

  core::PlacementState full(model);
  for (const graph::NodeId v : straight_state.placement()) full.add(v);
  if (options.spend_leftover_budget && full.placement().size() < k) {
    greedy_extend(model, full, k - full.placement().size());
  }
  return {full.placement(), full.value()};
}

}  // namespace

core::PlacementResult two_stage_grid_placement(
    const core::CoverageModel& model, const GridScenario& scenario,
    std::span<const GridFlow> flows, std::size_t k, TwoStageVariant variant,
    const TwoStageOptions& options) {
  check_flow_count(model, flows.size(), "two_stage_grid_placement");
  k = core::checked_budget(model, k, "two_stage_grid_placement");
  if (k <= 4) return small_k_placement(model, k);

  const citygen::GridCity& city = scenario.city();
  const std::size_t last = scenario.n() - 1;
  const std::size_t mid = scenario.shop_coord().col;  // == row (square grid)

  core::PlacementState state(model);
  const auto corner_stage_coord = [&](std::size_t col, std::size_t row) {
    if (variant == TwoStageVariant::kCorners) {
      return citygen::GridCoord{col, row};
    }
    // Midpoint between the corner and the shop, snapped to the grid.
    return citygen::GridCoord{(col + mid) / 2, (row + mid) / 2};
  };
  state.add(city.node_at(corner_stage_coord(0, 0)));
  state.add(city.node_at(corner_stage_coord(last, 0)));
  state.add(city.node_at(corner_stage_coord(0, last)));
  state.add(city.node_at(corner_stage_coord(last, last)));

  return finish(model, state, straight_mask_grid(scenario, flows), k,
                options);
}

core::PlacementResult two_stage_network_placement(
    const core::CoverageModel& model,
    std::span<const traffic::TrafficFlow> flows, const geo::BBox& region,
    std::size_t k, TwoStageVariant variant, const TwoStageOptions& options) {
  check_flow_count(model, flows.size(), "two_stage_network_placement");
  k = core::checked_budget(model, k, "two_stage_network_placement");
  if (region.empty()) {
    throw std::invalid_argument("two_stage_network_placement: empty region");
  }
  if (k <= 4) return small_k_placement(model, k);

  const graph::RoadNetwork& net = model.network();
  const geo::Point lo = region.min();
  const geo::Point hi = region.max();
  const geo::Point center = region.center();
  std::array<geo::Point, 4> anchors{geo::Point{lo.x, lo.y},
                                    geo::Point{hi.x, lo.y},
                                    geo::Point{lo.x, hi.y},
                                    geo::Point{hi.x, hi.y}};
  if (variant == TwoStageVariant::kMidpoints) {
    for (geo::Point& p : anchors) p = midpoint(p, center);
  }

  core::PlacementState state(model);
  for (const geo::Point& anchor : anchors) {
    const graph::NodeId node = nearest_node(net, anchor);
    if (node != graph::kInvalidNode) state.add(node);
  }

  return finish(model, state, straight_mask_network(net, flows, region), k,
                options);
}

}  // namespace rap::manhattan
