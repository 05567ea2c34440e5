// Single-swap local search on placements.
//
// The greedy algorithms can stall at locally poor solutions the moment two
// RAPs interact — the paper's own Fig. 4 example: every greedy reaches 7
// attracted drivers while the optimum {V2, V4} is worth 8. One round of
// swap moves (remove one placed RAP, add one unplaced intersection, keep
// the swap if the value strictly improves) escapes exactly that trap; for
// monotone submodular objectives a swap-local optimum is within factor 2
// of optimal, and in practice greedy + local search is near-exact (see
// bench/ablation_design).
#pragma once

#include "src/core/problem.h"

namespace rap::core {

struct LocalSearchOptions {
  /// Hard cap on improving swaps (each full pass is O(k |V|) evaluations).
  std::size_t max_swaps = 256;
};

struct LocalSearchResult {
  PlacementResult placement;
  std::size_t swaps_performed = 0;
  bool converged = true;  ///< false when max_swaps stopped the search
};

/// Improves `initial` by best-improvement swaps until no swap helps.
/// Duplicate nodes in `initial` are collapsed. Throws on bad node ids.
[[nodiscard]] LocalSearchResult local_search_improve(
    const CoverageModel& model, const Placement& initial,
    const LocalSearchOptions& options = {});

/// Convenience: composite greedy (Algorithm 2) followed by local search —
/// never worse than the greedy alone.
[[nodiscard]] LocalSearchResult greedy_with_local_search(
    const CoverageModel& model, std::size_t k,
    const LocalSearchOptions& options = {});

}  // namespace rap::core
