// Algorithms 3 and 4 — the two-stage Manhattan placements.
//
// Algorithm 3 (threshold utility, ratio 1 - 4/k on straight+turned flows):
//   k <= 4 : exhaustive search;
//   k >  4 : one RAP at each corner of the region (every turned flow has a
//            shortest path through a corner and will reroute there for the
//            free advertisement), then greedily cover the straight flows
//            with the remaining k - 4 RAPs (an intersection covers at most
//            one horizontal- and one vertical-straight flow).
//
// Algorithm 4 (decreasing utility, ratio 1/2 - 2/k): identical except the
// four stage-1 RAPs go to the midpoints between each corner and the shop,
// halving the expected detour of the turned flows they capture.
//
// Both run on the ideal grid (GridCoverageModel) and on a real network with
// flexible routing (FlexibleProblem) for the partially-grid Seattle city:
// stage-1 points map to the nearest existing intersection, and straightness
// is judged by where the flow's route crosses the region box.
#pragma once

#include <span>

#include "src/core/problem.h"
#include "src/geo/bbox.h"
#include "src/manhattan/flexible_eval.h"
#include "src/manhattan/grid_model.h"

namespace rap::manhattan {

enum class TwoStageVariant {
  kCorners,    ///< Algorithm 3
  kMidpoints,  ///< Algorithm 4
};

struct TwoStageOptions {
  /// Implementation extension: once every straight flow is served, spend
  /// any leftover stage-2 budget with the composite greedy over ALL flows
  /// instead of wasting it (never worse than the faithful algorithm, which
  /// leaves the budget idle). Set false for the paper's literal Algorithm 3.
  bool spend_leftover_budget = true;
};

/// Two-stage placement on the ideal grid. `model` is the GridCoverageModel
/// of `flows` on `scenario`, whose flows stage 2 classifies; throws
/// std::invalid_argument when flows.size() != model.num_flows(). Budget
/// contract (core/k_policy.h): k == 0 throws, k > num_nodes clamps and sets
/// the "placement.k_clamped" telemetry gauge.
[[nodiscard]] core::PlacementResult two_stage_grid_placement(
    const core::CoverageModel& model, const GridScenario& scenario,
    std::span<const GridFlow> flows, std::size_t k, TwoStageVariant variant,
    const TwoStageOptions& options = {});

/// Two-stage placement on a real network under flexible routing. `model`
/// is the FlexibleProblem of `flows`, whose paths stage 2 classifies
/// against `region`, the D x D square centred at the shop (the paper's
/// Manhattan region). Budget and flow-count contracts as above; throws when
/// the region is empty.
[[nodiscard]] core::PlacementResult two_stage_network_placement(
    const core::CoverageModel& model,
    std::span<const traffic::TrafficFlow> flows, const geo::BBox& region,
    std::size_t k, TwoStageVariant variant,
    const TwoStageOptions& options = {});

}  // namespace rap::manhattan
