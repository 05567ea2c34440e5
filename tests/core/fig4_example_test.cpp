// End-to-end reproduction of the paper's Fig. 4 worked example and the
// Section III-C discussion built on it. These are the paper's own numbers:
//   * threshold utility, k = 2, D = 6: Algorithm 1 places V3 then V5;
//   * linear utility: {V3, V5} attracts 5 drivers, {V2, V4} attracts 8
//     (the optimum), and the naive marginal greedy gets stuck at 7;
//   * Algorithm 2 also reaches 7 here — within its 1 - 1/sqrt(e) bound —
//     and reduces to Algorithm 1 under the threshold utility.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "src/core/baselines.h"
#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/exhaustive.h"
#include "src/core/greedy.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

using testing::Fig4;

class Fig4Example : public ::testing::Test {
 protected:
  Fig4Example()
      : threshold_(Fig4::threshold),
        linear_(Fig4::threshold),
        threshold_problem_(fig_.net, fig_.flows, Fig4::shop, threshold_),
        linear_problem_(fig_.net, fig_.flows, Fig4::shop, linear_) {}

  Fig4 fig_;
  traffic::ThresholdUtility threshold_;
  traffic::LinearUtility linear_;
  PlacementProblem threshold_problem_;
  PlacementProblem linear_problem_;
};

TEST_F(Fig4Example, Algorithm1PlacesV3ThenV5) {
  const PlacementResult result = greedy_coverage_placement(threshold_problem_, 2);
  EXPECT_EQ(result.nodes, (Placement{Fig4::V3, Fig4::V5}));
  EXPECT_DOUBLE_EQ(result.customers, 17.0);
}

TEST_F(Fig4Example, Algorithm1TerminatesWhenAllCovered) {
  // The paper: "The algorithm terminates for this example, since all the
  // traffic flows are covered." With k = 4, still only two RAPs are placed.
  const PlacementResult result = greedy_coverage_placement(threshold_problem_, 4);
  EXPECT_EQ(result.nodes.size(), 2u);
}

TEST_F(Fig4Example, NaiveMarginalGreedyGetsSeven) {
  const PlacementResult result =
      naive_marginal_greedy_placement(linear_problem_, 2);
  EXPECT_EQ(result.nodes[0], Fig4::V3);  // first step: gain 5
  EXPECT_NEAR(result.customers, 7.0, 1e-12);
}

TEST_F(Fig4Example, CompositeGreedyGetsSeven) {
  const PlacementResult result = composite_greedy_placement(linear_problem_, 2);
  EXPECT_EQ(result.nodes[0], Fig4::V3);
  EXPECT_NEAR(result.customers, 7.0, 1e-12);
}

TEST_F(Fig4Example, OptimumIsV2V4WithEight) {
  const PlacementResult opt = exhaustive_optimal_placement(linear_problem_, 2);
  Placement sorted = opt.nodes;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (Placement{Fig4::V2, Fig4::V4}));
  EXPECT_NEAR(opt.customers, 8.0, 1e-12);
}

TEST_F(Fig4Example, CompositeGreedyMeetsItsBound) {
  const double greedy = composite_greedy_placement(linear_problem_, 2).customers;
  const double opt = exhaustive_optimal_placement(linear_problem_, 2).customers;
  EXPECT_GE(greedy, (1.0 - 1.0 / std::sqrt(std::numbers::e)) * opt);
}

TEST_F(Fig4Example, Algorithm1MeetsItsBoundOnThreshold) {
  const double greedy = greedy_coverage_placement(threshold_problem_, 2).customers;
  const double opt = exhaustive_optimal_placement(threshold_problem_, 2).customers;
  EXPECT_GE(greedy, (1.0 - 1.0 / std::numbers::e) * opt);
}

TEST_F(Fig4Example, CompositeReducesToAlgorithm1UnderThreshold) {
  // The paper: "Algorithm 2 would reduce to Algorithm 1, if we use the
  // threshold utility function."
  const PlacementResult alg1 = greedy_coverage_placement(threshold_problem_, 2);
  const PlacementResult alg2 = composite_greedy_placement(threshold_problem_, 2);
  EXPECT_EQ(alg1.nodes, alg2.nodes);
  EXPECT_DOUBLE_EQ(alg1.customers, alg2.customers);
}

TEST_F(Fig4Example, V6NeverCoversT56) {
  // The paper: V6 does not include T(5,6) — its detour is 8 > D = 6.
  PlacementState state(threshold_problem_);
  EXPECT_DOUBLE_EQ(state.uncovered_gain(Fig4::V6), 0.0);
}

TEST_F(Fig4Example, MaxCustomersEqualsOptimumAtKOne) {
  // Section V-B: "MaxCustomers ... is equivalent to the optimal algorithm,
  // when k = 1."
  for (const PlacementProblem* problem :
       {&threshold_problem_, &linear_problem_}) {
    const double ranked = max_customers_placement(*problem, 1).customers;
    const double opt = exhaustive_optimal_placement(*problem, 1).customers;
    EXPECT_DOUBLE_EQ(ranked, opt);
  }
}

TEST_F(Fig4Example, MaxCardinalityPrefersBusyIntersections) {
  // V3 and V5 both see 3 flows; MaxCardinality picks them first (ids
  // break the tie).
  const PlacementResult result = max_cardinality_placement(
      threshold_problem_, traffic::passing_traffic(fig_.net, fig_.flows), 2);
  Placement sorted = result.nodes;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (Placement{Fig4::V3, Fig4::V5}));
}

TEST_F(Fig4Example, MaxVehiclesPicksV3First) {
  // V3 passes 15 vehicles/day — the busiest intersection.
  const PlacementResult result = max_vehicles_placement(
      threshold_problem_, traffic::passing_traffic(fig_.net, fig_.flows), 1);
  EXPECT_EQ(result.nodes, Placement{Fig4::V3});
}

}  // namespace
}  // namespace rap::core
