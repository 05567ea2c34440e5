#include "src/manhattan/two_stage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "src/core/evaluator.h"
#include "src/core/exhaustive.h"
#include "src/core/filtered.h"
#include "src/manhattan/flow_class.h"
#include "src/obs/telemetry.h"

namespace rap::manhattan {
namespace {

std::vector<GridFlow> mixed_flows(const GridScenario& scenario,
                                  std::size_t count, std::uint64_t seed) {
  GridFlowGenSpec spec;
  spec.count = count;
  spec.mean_vehicles = 10.0;
  spec.passengers_per_vehicle = 1.0;
  spec.alpha = 1.0;
  util::Rng rng(seed);
  return generate_grid_flows(scenario, spec, rng);
}

std::vector<bool> straight_turned_mask(const GridScenario& scenario,
                                       const std::vector<GridFlow>& flows) {
  std::vector<bool> mask(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const GridFlowClass c = classify_grid_flow(scenario, flows[f]);
    mask[f] = c != GridFlowClass::kOther;
  }
  return mask;
}

/// The four corner intersections of the scenario's grid.
std::vector<graph::NodeId> corner_nodes(const GridScenario& scenario) {
  const citygen::GridCity& city = scenario.city();
  const std::size_t last = scenario.n() - 1;
  return {city.node_at(0, 0), city.node_at(last, 0), city.node_at(0, last),
          city.node_at(last, last)};
}

TEST(TwoStageGrid, RejectsZeroK) {
  const GridScenario scenario(5, 1.0);
  const auto flows = mixed_flows(scenario, 10, 1);
  const traffic::ThresholdUtility utility(100.0);
  const GridCoverageModel model(scenario, flows, utility);
  EXPECT_THROW(
      two_stage_grid_placement(
          model, scenario, flows, 0, TwoStageVariant::kCorners),
      std::invalid_argument);
}

TEST(TwoStageGrid, RejectsFlowsThatAreNotTheModels) {
  // Stage 2 classifies `flows` against the model's flow indices, so they
  // must be the flows the model was built from.
  const GridScenario scenario(5, 1.0);
  const auto flows = mixed_flows(scenario, 10, 1);
  const traffic::ThresholdUtility utility(100.0);
  const GridCoverageModel model(scenario, flows, utility);
  const std::span<const GridFlow> fewer(flows.data(), flows.size() - 1);
  // k <= 4 returns before stage 2 but is checked all the same.
  for (const std::size_t k : {std::size_t{3}, std::size_t{8}}) {
    EXPECT_THROW(two_stage_grid_placement(model, scenario, fewer, k,
                                          TwoStageVariant::kCorners),
                 std::invalid_argument);
  }
}

TEST(TwoStageGrid, OverBudgetClampsAndSetsTheGauge) {
  // Budget contract (core/k_policy.h): k > num_nodes clamps instead of
  // overrunning, and reports the excess on the telemetry gauge.
  const GridScenario scenario(5, 1.0);
  const auto flows = mixed_flows(scenario, 10, 1);
  const traffic::ThresholdUtility utility(100.0);
  const GridCoverageModel model(scenario, flows, utility);
  const std::size_t n = model.num_nodes();
  obs::Telemetry telemetry;
  {
    const obs::TelemetryScope scope(telemetry);
    const core::PlacementResult result =
        two_stage_grid_placement(
            model, scenario, flows, n + 7, TwoStageVariant::kCorners);
    EXPECT_LE(result.nodes.size(), n);
  }
  EXPECT_DOUBLE_EQ(telemetry.metrics.gauge("placement.k_clamped").value(),
                   7.0);
}

TEST(TwoStageGrid, SmallKMatchesExhaustive) {
  const GridScenario scenario(5, 1.0);
  const auto flows = mixed_flows(scenario, 8, 2);
  const traffic::ThresholdUtility utility(100.0);
  const GridCoverageModel model(scenario, flows, utility);
  for (const std::size_t k : {1u, 2u, 3u}) {
    const double two_stage =
        two_stage_grid_placement(
            model, scenario, flows, k, TwoStageVariant::kCorners).customers;
    const double opt = core::exhaustive_optimal_placement(model, k).customers;
    EXPECT_NEAR(two_stage, opt, 1e-9) << "k=" << k;
  }
}

TEST(TwoStageGrid, CornersVariantPlacesCorners) {
  const GridScenario scenario(7, 1.0);
  const auto flows = mixed_flows(scenario, 20, 3);
  const traffic::ThresholdUtility utility(100.0);
  const GridCoverageModel model(scenario, flows, utility);
  const auto result =
      two_stage_grid_placement(
          model, scenario, flows, 8, TwoStageVariant::kCorners);
  const std::set<graph::NodeId> placed(result.nodes.begin(), result.nodes.end());
  for (const graph::NodeId corner : corner_nodes(scenario)) {
    EXPECT_TRUE(placed.contains(corner));
  }
  EXPECT_LE(result.nodes.size(), 8u);
}

TEST(TwoStageGrid, MidpointsVariantPlacesMidpoints) {
  const GridScenario scenario(5, 1.0);
  const auto flows = mixed_flows(scenario, 20, 4);
  const traffic::LinearUtility utility(8.0);
  const GridCoverageModel model(scenario, flows, utility);
  const auto result =
      two_stage_grid_placement(
          model, scenario, flows, 6, TwoStageVariant::kMidpoints);
  const std::set<graph::NodeId> placed(result.nodes.begin(), result.nodes.end());
  const citygen::GridCity& city = scenario.city();
  // Midpoints between corners (0/4) and shop (2,2) snap to (1,1) etc.
  for (const auto& [c, r] : {std::pair<std::size_t, std::size_t>{1, 1},
                             {3, 1},
                             {1, 3},
                             {3, 3}}) {
    EXPECT_TRUE(placed.contains(city.node_at(c, r))) << c << "," << r;
  }
}

TEST(TwoStageGrid, FourCornersCoverAllTurnedFlows) {
  // Theorem 3, part 1: every turned flow has a shortest path through a
  // corner of the region.
  const GridScenario scenario(9, 1.0);
  const auto flows = mixed_flows(scenario, 60, 5);
  const std::vector<graph::NodeId> corners = corner_nodes(scenario);
  for (const GridFlow& flow : flows) {
    if (classify_grid_flow(scenario, flow) != GridFlowClass::kTurned) continue;
    EXPECT_LT(scenario.best_detour(flow, corners), graph::kUnreachable)
        << "turned flow (" << flow.entry.col << "," << flow.entry.row
        << ") -> (" << flow.exit.col << "," << flow.exit.row << ")";
  }
}

TEST(TwoStageGrid, Theorem3RatioOnStraightAndTurnedFlows) {
  // With a threshold covering every possible detour (D_thresh = 2 * side),
  // Algorithm 3 must be within 1 - 4/k of the optimum restricted to
  // straight + turned flows.
  const GridScenario scenario(5, 1.0);
  const auto flows = mixed_flows(scenario, 14, 6);
  const traffic::ThresholdUtility utility(2.0 * scenario.side());
  const GridCoverageModel model(scenario, flows, utility);
  const core::FilteredCoverageModel filtered(
      model, straight_turned_mask(scenario, flows));

  const std::size_t k = 6;
  const auto placement =
      two_stage_grid_placement(
          model, scenario, flows, k, TwoStageVariant::kCorners);
  const double achieved =
      core::evaluate_placement(filtered, placement.nodes);
  const double opt =
      core::exhaustive_optimal_placement(filtered, k, {2'000'000}).customers;
  const double ratio = 1.0 - 4.0 / static_cast<double>(k);
  EXPECT_GE(achieved, ratio * opt - 1e-9)
      << "achieved=" << achieved << " opt=" << opt;
}

TEST(TwoStageGrid, ValueMatchesEvaluator) {
  const GridScenario scenario(7, 1.0);
  const auto flows = mixed_flows(scenario, 25, 7);
  const traffic::LinearUtility utility(10.0);
  const GridCoverageModel model(scenario, flows, utility);
  for (const std::size_t k : {5u, 7u, 9u}) {
    const auto result =
        two_stage_grid_placement(
            model, scenario, flows, k, TwoStageVariant::kMidpoints);
    EXPECT_NEAR(result.customers,
                core::evaluate_placement(model, result.nodes), 1e-9);
  }
}

// ---- Network variant ----

class TwoStageNetwork : public ::testing::Test {
 protected:
  TwoStageNetwork()
      : city_({9, 9, 1.0, {0.0, 0.0}}),
        utility_(8.0),
        region_(geo::BBox::centered_square({4.0, 4.0}, 8.0)) {
    util::Rng rng(13);
    for (int i = 0; i < 20; ++i) {
      const auto a =
          static_cast<graph::NodeId>(rng.next_below(city_.network().num_nodes()));
      const auto b =
          static_cast<graph::NodeId>(rng.next_below(city_.network().num_nodes()));
      if (a == b) continue;
      flows_.push_back(traffic::make_shortest_path_flow(
          city_.network(), a, b, 1.0 + static_cast<double>(rng.next_below(10))));
    }
  }

  citygen::GridCity city_;
  traffic::ThresholdUtility utility_;
  geo::BBox region_;
  std::vector<traffic::TrafficFlow> flows_;
};

TEST_F(TwoStageNetwork, PlacesNearRegionCorners) {
  const FlexibleProblem model(city_.network(), flows_, city_.node_at(4, 4),
                              utility_);
  const auto result = two_stage_network_placement(
      model, flows_, region_, 8, TwoStageVariant::kCorners);
  const std::set<graph::NodeId> placed(result.nodes.begin(), result.nodes.end());
  EXPECT_TRUE(placed.contains(city_.node_at(0, 0)));
  EXPECT_TRUE(placed.contains(city_.node_at(8, 0)));
  EXPECT_TRUE(placed.contains(city_.node_at(0, 8)));
  EXPECT_TRUE(placed.contains(city_.node_at(8, 8)));
}

TEST_F(TwoStageNetwork, MidpointVariantPlacesBetweenCornerAndShop) {
  const FlexibleProblem model(city_.network(), flows_, city_.node_at(4, 4),
                              utility_);
  const auto result = two_stage_network_placement(
      model, flows_, region_, 8, TwoStageVariant::kMidpoints);
  const std::set<graph::NodeId> placed(result.nodes.begin(), result.nodes.end());
  EXPECT_TRUE(placed.contains(city_.node_at(2, 2)));
  EXPECT_TRUE(placed.contains(city_.node_at(6, 6)));
}

TEST_F(TwoStageNetwork, SmallKUsesExhaustive) {
  const FlexibleProblem model(city_.network(), flows_, city_.node_at(4, 4),
                              utility_);
  const auto two_stage = two_stage_network_placement(
      model, flows_, region_, 1, TwoStageVariant::kCorners);
  const auto opt = core::exhaustive_optimal_placement(model, 1);
  EXPECT_NEAR(two_stage.customers, opt.customers, 1e-9);
}

TEST_F(TwoStageNetwork, Validation) {
  const FlexibleProblem model(city_.network(), flows_, city_.node_at(4, 4),
                              utility_);
  EXPECT_THROW(two_stage_network_placement(model, flows_, region_, 0,
                                           TwoStageVariant::kCorners),
               std::invalid_argument);
  EXPECT_THROW(two_stage_network_placement(model, flows_, geo::BBox{}, 5,
                                           TwoStageVariant::kCorners),
               std::invalid_argument);
  const std::span<const traffic::TrafficFlow> fewer(flows_.data(),
                                                    flows_.size() - 1);
  for (const std::size_t k : {std::size_t{3}, std::size_t{8}}) {
    EXPECT_THROW(two_stage_network_placement(model, fewer, region_, k,
                                             TwoStageVariant::kCorners),
                 std::invalid_argument);
  }
}

TEST_F(TwoStageNetwork, BudgetRespected) {
  const FlexibleProblem model(city_.network(), flows_, city_.node_at(4, 4),
                              utility_);
  for (const std::size_t k : {5u, 6u, 10u}) {
    const auto result = two_stage_network_placement(
        model, flows_, region_, k, TwoStageVariant::kCorners);
    EXPECT_LE(result.nodes.size(), k);
  }
}


TEST(TwoStageGrid, Theorem4RatioOnStraightAndTurnedFlows) {
  // Theorem 4's bound (1/2 - 2/k) for Algorithm 4 under the linear utility,
  // checked empirically against the exhaustive optimum restricted to
  // straight + turned flows. The theorem's uniform-detour prerequisite is
  // only approximately met by random flows, so this is an observed-ratio
  // check across seeds rather than a worst-case proof.
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    const GridScenario scenario(5, 1.0);
    const auto flows = mixed_flows(scenario, 12, seed);
    const traffic::LinearUtility utility(scenario.side());
    const GridCoverageModel model(scenario, flows, utility);
    const core::FilteredCoverageModel filtered(
        model, straight_turned_mask(scenario, flows));
    const std::size_t k = 6;
    const auto placement =
        two_stage_grid_placement(
            model, scenario, flows, k, TwoStageVariant::kMidpoints);
    const double achieved = core::evaluate_placement(filtered, placement.nodes);
    const double opt =
        core::exhaustive_optimal_placement(filtered, k, {2'000'000}).customers;
    const double ratio = 0.5 - 2.0 / static_cast<double>(k);
    EXPECT_GE(achieved, ratio * opt - 1e-9)
        << "seed " << seed << " achieved=" << achieved << " opt=" << opt;
  }
}

TEST(TwoStageGrid, FaithfulModeLeavesLeftoverBudgetIdle) {
  // With spend_leftover_budget = false (the literal Algorithm 3), once the
  // straight flows are served the remaining budget is not spent.
  const GridScenario scenario(5, 1.0);
  // A single straight flow: stage 2 needs exactly one RAP.
  std::vector<GridFlow> flows(1);
  flows[0].entry = {0, 1};
  flows[0].exit = {4, 1};
  flows[0].daily_vehicles = 10.0;
  flows[0].alpha = 1.0;
  const traffic::ThresholdUtility utility(100.0);
  const GridCoverageModel model(scenario, flows, utility);
  TwoStageOptions faithful;
  faithful.spend_leftover_budget = false;
  const auto literal =
      two_stage_grid_placement(
          model, scenario, flows, 8, TwoStageVariant::kCorners, faithful);
  EXPECT_LE(literal.nodes.size(), 5u);  // 4 corners + <= 1 straight RAP
  const auto extended =
      two_stage_grid_placement(
          model, scenario, flows, 8, TwoStageVariant::kCorners);
  EXPECT_GE(extended.customers, literal.customers);
}

TEST(TwoStageGrid, ExtensionNeverWorseThanFaithful) {
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    const GridScenario scenario(7, 1.0);
    const auto flows = mixed_flows(scenario, 20, seed);
    const traffic::LinearUtility utility(scenario.side());
    const GridCoverageModel model(scenario, flows, utility);
    TwoStageOptions faithful;
    faithful.spend_leftover_budget = false;
    for (const std::size_t k : {5u, 8u}) {
      for (const TwoStageVariant variant :
           {TwoStageVariant::kCorners, TwoStageVariant::kMidpoints}) {
        const double literal =
            two_stage_grid_placement(
                model, scenario, flows, k, variant, faithful).customers;
        const double extended =
            two_stage_grid_placement(
                model, scenario, flows, k, variant).customers;
        EXPECT_GE(extended, literal - 1e-9) << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace rap::manhattan
