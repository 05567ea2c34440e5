// A coverage table restricted to a subset of flows. Algorithm 3's second
// stage greedily covers only the *straight* traffic flows; restricting the
// full model's table keeps the greedy implementations unchanged.
#pragma once

#include <vector>

#include "src/core/problem.h"

namespace rap::core {

/// Flow indices are preserved (not compacted): num_flows() matches the
/// base so indices stay comparable across the filter boundary. A filtered
/// flow never appears in reach_at and weighs 0 in customers(). The model
/// copies only the base's active entries and its weights.
class FilteredCoverageModel final : public CoverageModel {
 public:
  /// `active[f]` selects which of `base`'s flows remain visible. Copies
  /// what it keeps; `base` may go away afterwards. Throws
  /// std::invalid_argument on a size mismatch.
  FilteredCoverageModel(const CoverageModel& base,
                        const std::vector<bool>& active);
};

}  // namespace rap::core
