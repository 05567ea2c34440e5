// Coverage over the ideal grid scenario: a RAP at node v reaches a flow iff
// v lies inside the flow's bounding rectangle (route-aware reach). Staged
// into a core::CoverageModel, so Algorithms 1/2, the exhaustive optimum and
// the baselines run on the Section IV world unchanged.
#pragma once

#include <span>

#include "src/core/problem.h"
#include "src/manhattan/grid_scenario.h"

namespace rap::manhattan {

class GridCoverageModel final : public core::CoverageModel {
 public:
  /// Stages each flow's bounding rectangle, every node kept. `scenario`
  /// and `utility` must outlive the model; `flows` are read only during
  /// construction. Throws std::invalid_argument on a flow with non-finite
  /// or negative volumes or an alpha outside [0, 1].
  GridCoverageModel(const GridScenario& scenario,
                    std::span<const GridFlow> flows,
                    const traffic::UtilityFunction& utility);
};

}  // namespace rap::manhattan
