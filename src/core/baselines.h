// The four comparison algorithms of Section V-B.
//
//   MaxCardinality — top-k intersections by number of passing traffic flows.
//   MaxVehicles    — top-k intersections by number of passing vehicles.
//   MaxCustomers   — top-k intersections by customers attracted if a single
//                    RAP were placed there (optimal at k = 1).
//   Random         — k intersections drawn uniformly from the D x D square
//                    centred at the shop.
// "Passing" is a property of the trace, not of the coverage table: the two
// traffic rankings read traffic::passing_traffic over the flows' recorded
// paths, in the general and the Manhattan scenario alike, and value their
// placement on `model`. The caller computes that ranking once per flow set
// (it does not depend on the shop) and passes it in. All rankings break
// ties towards the lowest node id for determinism, and all take k through
// core::checked_budget.
#pragma once

#include <vector>

#include "src/core/problem.h"
#include "src/traffic/flow.h"
#include "src/util/rng.h"

namespace rap::core {

/// `passing` is traffic::passing_traffic over the flows `model` was built
/// from. Throws std::invalid_argument when it does not have one entry per
/// node of `model`.
[[nodiscard]] PlacementResult max_cardinality_placement(
    const CoverageModel& model, const traffic::PassingTraffic& passing,
    std::size_t k);

/// As max_cardinality_placement, ranked by passing daily vehicles.
[[nodiscard]] PlacementResult max_vehicles_placement(
    const CoverageModel& model, const traffic::PassingTraffic& passing,
    std::size_t k);

[[nodiscard]] PlacementResult max_customers_placement(
    const CoverageModel& model, std::size_t k);

/// Uniform-random placement inside the D x D square around the shop (D is
/// the utility range, matching the paper's setup). Falls back to the whole
/// network when the square contains fewer than k intersections. Requires a
/// single-shop problem (problem.shop() valid).
[[nodiscard]] PlacementResult random_placement(const CoverageModel& model,
                                               std::size_t k, util::Rng& rng);

}  // namespace rap::core
