#include "src/manhattan/grid_model.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/exhaustive.h"

namespace rap::manhattan {
namespace {

std::vector<GridFlow> two_flows() {
  std::vector<GridFlow> flows(2);
  flows[0].entry = {0, 2};
  flows[0].exit = {4, 2};
  flows[0].daily_vehicles = 3.0;
  flows[0].alpha = 1.0;
  flows[1].entry = {0, 0};
  flows[1].exit = {2, 4};
  flows[1].daily_vehicles = 5.0;
  flows[1].alpha = 1.0;
  return flows;
}

class GridModelTest : public ::testing::Test {
 protected:
  GridModelTest()
      : scenario_(5, 1.0),
        flows_(two_flows()),
        utility_(100.0),
        model_(scenario_, flows_, utility_) {}

  GridScenario scenario_;
  std::vector<GridFlow> flows_;
  traffic::ThresholdUtility utility_;
  GridCoverageModel model_;
};

TEST_F(GridModelTest, Dimensions) {
  EXPECT_EQ(model_.num_nodes(), 25u);
  EXPECT_EQ(model_.num_flows(), 2u);
  EXPECT_EQ(model_.shop(), scenario_.shop_node());
}

TEST_F(GridModelTest, ReachMatchesBoundingRectangles) {
  const citygen::GridCity& city = scenario_.city();
  // (1, 2) is on flow 0's row and inside flow 1's rectangle.
  EXPECT_EQ(model_.reach_at(city.node_at(1, 2)).size(), 2u);
  // (3, 3) is on neither.
  EXPECT_TRUE(model_.reach_at(city.node_at(3, 3)).empty());
  // (4, 2) is flow 0 only.
  EXPECT_EQ(model_.reach_at(city.node_at(4, 2)).size(), 1u);
}

TEST_F(GridModelTest, ReachDetoursMatchScenario) {
  const citygen::GridCity& city = scenario_.city();
  for (const auto& inc : model_.reach_at(city.node_at(1, 2))) {
    const double expected =
        scenario_.detour_at({1, 2}, flows_[inc.flow].exit);
    EXPECT_DOUBLE_EQ(inc.detour, expected);
  }
}

TEST_F(GridModelTest, EvaluateMatchesScenarioEvaluate) {
  const citygen::GridCity& city = scenario_.city();
  for (const std::vector<graph::NodeId>& placement :
       {std::vector<graph::NodeId>{city.node_at(2, 2)},
        std::vector<graph::NodeId>{city.node_at(0, 0), city.node_at(4, 2)},
        std::vector<graph::NodeId>{city.node_at(1, 1), city.node_at(3, 3),
                                   city.node_at(2, 0)}}) {
    EXPECT_NEAR(core::evaluate_placement(model_, placement),
                scenario_.evaluate(flows_, placement, utility_), 1e-12);
  }
}

TEST_F(GridModelTest, CustomersValidation) {
  EXPECT_THROW(model_.customers(2, 0.0), std::out_of_range);
  EXPECT_DOUBLE_EQ(model_.customers(0, graph::kUnreachable), 0.0);
}

TEST_F(GridModelTest, CoreAlgorithmsRunOnGridModel) {
  // The centre covers both flows with detour 0: any sensible algorithm
  // attracts everything with one RAP.
  const auto greedy = core::composite_greedy_placement(model_, 1);
  EXPECT_DOUBLE_EQ(greedy.customers, 8.0);
  const auto opt = core::exhaustive_optimal_placement(model_, 1);
  EXPECT_DOUBLE_EQ(opt.customers, 8.0);
}

TEST(GridModel, RouteFlexibilityBeatsFixedPathCoverage) {
  // A RAP anywhere in a turned flow's rectangle reaches it — far more
  // coverage than any single fixed path would give.
  const GridScenario scenario(5, 1.0);
  std::vector<GridFlow> flows(1);
  flows[0].entry = {0, 0};
  flows[0].exit = {4, 4};
  flows[0].daily_vehicles = 1.0;
  flows[0].alpha = 1.0;
  const traffic::ThresholdUtility utility(100.0);
  const GridCoverageModel model(scenario, flows, utility);
  std::size_t reachable = 0;
  for (graph::NodeId v = 0; v < model.num_nodes(); ++v) {
    reachable += !model.reach_at(v).empty();
  }
  EXPECT_EQ(reachable, 25u);  // whole rectangle, not just one 9-node path
}

TEST(GridModel, RejectsTheFlowsTheOtherModelsReject) {
  // Each of these used to construct: a NaN volume read back as a NaN
  // passing_vehicles and a lazy greedy that silently placed fewer RAPs, a
  // negative one as a greedy that placed none, and alpha 2 threw only at
  // the first gain evaluation.
  const GridScenario scenario(5, 1.0);
  const traffic::LinearUtility utility(1000.0);
  std::vector<std::vector<GridFlow>> bad(3, two_flows());
  bad[0][1].daily_vehicles = std::numeric_limits<double>::quiet_NaN();
  bad[1][1].daily_vehicles = -50.0;
  bad[2][1].alpha = 2.0;
  for (const std::vector<GridFlow>& flows : bad) {
    EXPECT_THROW(GridCoverageModel(scenario, flows, utility),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace rap::manhattan
