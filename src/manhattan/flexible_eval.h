// Flexible-route coverage for real (partially grid) networks — the Fig. 13
// evaluation model.
//
// Under the Manhattan scenario a flow is not pinned to one path: drivers
// take any shortest path from origin to destination and will pick one
// passing a RAP to collect the free advertisement. Hence a RAP at v reaches
// flow (i, j) iff
//     dist(i, v) + dist(v, j) == dist(i, j)
// and offers detour dist(v, shop) + dist(shop, j) - dist(v, j). On networks
// with many shortest-path ties (grids and near-grids) this covers far more
// flows per RAP than the fixed-path model — exactly why the paper measures
// more customers in Fig. 13 than in Fig. 12.
//
// FlexibleProblem stages these entries into a core::CoverageModel, so
// Algorithms 1/2, the exhaustive optimum, and all baselines run unchanged
// against it.
#pragma once

#include <vector>

#include "src/core/problem.h"

namespace rap::manhattan {

class FlexibleProblem final : public core::CoverageModel {
 public:
  /// Stages every flow's shortest-path DAG: per flow, one Dijkstra from the
  /// origin and one reverse Dijkstra from the destination (cached across
  /// flows sharing endpoints), priced off the shop's two trees. Every DAG
  /// node is kept (max_detour = kUnreachable). Only a flow's origin and
  /// destination place it; its stored path is validated like everywhere
  /// else, and the flows are read only during construction. Throws on bad
  /// input.
  FlexibleProblem(const graph::RoadNetwork& net,
                  const std::vector<traffic::TrafficFlow>& flows,
                  graph::NodeId shop,
                  const traffic::UtilityFunction& utility);
};

}  // namespace rap::manhattan
