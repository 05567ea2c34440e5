#include "src/manhattan/flexible_eval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "src/citygen/grid_city.h"
#include "src/core/evaluator.h"
#include "src/manhattan/grid_scenario.h"
#include "tests/testing/builders.h"

namespace rap::manhattan {
namespace {

TEST(FlexibleProblem, ReachEqualsShortestPathDagMembership) {
  // Off-diagonal OD pairs, so the shortest-path DAG (every monotone
  // staircase inside the OD bounding rectangle on a full grid) leaves nodes
  // out. The reference is the grid model's rectangle test, independent of
  // the Dijkstra trees FlexibleProblem builds its reach from.
  const citygen::GridCity city({5, 5, 1.0, {0.0, 0.0}});
  const graph::RoadNetwork& net = city.network();
  const std::vector<std::pair<citygen::GridCoord, citygen::GridCoord>> ods{
      {{1, 0}, {3, 4}}, {{4, 1}, {0, 3}}};
  std::vector<traffic::TrafficFlow> flows;
  for (const auto& [entry, exit] : ods) {
    flows.push_back(traffic::make_shortest_path_flow(
        net, city.node_at(entry), city.node_at(exit), 10.0));
  }
  const traffic::ThresholdUtility utility(100.0);
  const FlexibleProblem model(net, flows, city.node_at(2, 2), utility);
  for (traffic::FlowIndex f = 0; f < ods.size(); ++f) {
    std::size_t off_dag = 0;
    for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
      const auto reach = model.reach_at(v);
      const bool reached = std::any_of(
          reach.begin(), reach.end(),
          [f](const traffic::NodeIncidence& inc) { return inc.flow == f; });
      const bool on_dag = GridScenario::on_some_shortest_path(
          ods[f].first, ods[f].second, city.coord_of(v));
      EXPECT_EQ(reached, on_dag) << "flow " << f << " node " << v;
      off_dag += on_dag ? 0 : 1;
    }
    EXPECT_GT(off_dag, 0u) << "flow " << f;
  }
}

TEST(FlexibleProblem, DetourMatchesFormula) {
  const citygen::GridCity city({5, 5, 1.0, {0.0, 0.0}});
  const graph::RoadNetwork& net = city.network();
  const graph::NodeId shop = city.node_at(2, 2);
  std::vector<traffic::TrafficFlow> flows{
      traffic::make_shortest_path_flow(net, city.node_at(0, 0),
                                       city.node_at(4, 4), 1.0)};
  const traffic::ThresholdUtility utility(100.0);
  const FlexibleProblem model(net, flows, shop, utility);
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
    for (const auto& inc : model.reach_at(v)) {
      const double expected = std::max(
          0.0, graph::dijkstra_distance(net, v, shop) +
                   graph::dijkstra_distance(net, shop, flows[0].destination) -
                   graph::dijkstra_distance(net, v, flows[0].destination));
      EXPECT_NEAR(inc.detour, expected, 1e-9) << v;
    }
  }
}

TEST(FlexibleProblem, EqualsFixedPathModelOnUniquePathNetworks) {
  // On a line network every OD pair has exactly one path, so flexible
  // routing changes nothing.
  const auto net = testing::line_network(8);
  std::vector<traffic::TrafficFlow> flows;
  flows.push_back(traffic::make_shortest_path_flow(net, 0, 5, 4.0));
  flows.push_back(traffic::make_shortest_path_flow(net, 2, 7, 6.0));
  const traffic::LinearUtility utility(10.0);
  const core::PlacementProblem fixed(net, flows, 3, utility);
  const FlexibleProblem flexible(net, flows, 3, utility);
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    core::Placement placement;
    for (int i = 0; i < 3; ++i) {
      placement.push_back(static_cast<graph::NodeId>(rng.next_below(8)));
    }
    EXPECT_NEAR(core::evaluate_placement(fixed, placement),
                core::evaluate_placement(flexible, placement), 1e-9);
  }
}

TEST(FlexibleProblem, FlexibilityNeverReducesValue) {
  // Fig. 13 vs Fig. 12 headline: under flexible routing every placement is
  // worth at least as much as under fixed paths (more reach, and the
  // detour at any fixed-path node is identical).
  util::Rng rng(11);
  const citygen::GridCity city({6, 6, 1.0, {0.0, 0.0}});
  const graph::RoadNetwork& net = city.network();
  const auto flows = testing::random_flows(net, 15, rng);
  for (const auto kind :
       {traffic::UtilityKind::kThreshold, traffic::UtilityKind::kLinear}) {
    const auto utility = traffic::make_utility(kind, 8.0);
    const core::PlacementProblem fixed(net, flows, 14, *utility);
    const FlexibleProblem flexible(net, flows, 14, *utility);
    for (int trial = 0; trial < 30; ++trial) {
      core::Placement placement;
      for (int i = 0; i < 4; ++i) {
        placement.push_back(
            static_cast<graph::NodeId>(rng.next_below(net.num_nodes())));
      }
      EXPECT_GE(core::evaluate_placement(flexible, placement) + 1e-9,
                core::evaluate_placement(fixed, placement))
          << utility->name();
    }
  }
}

TEST(FlexibleProblem, StrictGainOnOffPathRap) {
  // A RAP off the stored path but on another shortest path attracts the
  // flow only under flexible routing.
  const citygen::GridCity city({3, 3, 1.0, {0.0, 0.0}});
  const graph::RoadNetwork& net = city.network();
  std::vector<traffic::TrafficFlow> flows{traffic::make_shortest_path_flow(
      net, city.node_at(0, 0), city.node_at(2, 2), 10.0)};
  const traffic::ThresholdUtility utility(100.0);
  const graph::NodeId shop = city.node_at(1, 1);
  const core::PlacementProblem fixed(net, flows, shop, utility);
  const FlexibleProblem flexible(net, flows, shop, utility);
  // Find a grid node on SOME shortest path but not on the stored one.
  graph::NodeId off_path = graph::kInvalidNode;
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
    const bool stored = std::find(flows[0].path.begin(), flows[0].path.end(),
                                  v) != flows[0].path.end();
    if (!stored && !flexible.reach_at(v).empty()) {
      off_path = v;
      break;
    }
  }
  ASSERT_NE(off_path, graph::kInvalidNode);
  const core::Placement placement{off_path};
  EXPECT_DOUBLE_EQ(core::evaluate_placement(fixed, placement), 0.0);
  EXPECT_DOUBLE_EQ(core::evaluate_placement(flexible, placement), 10.0);
}

TEST(FlexibleProblem, PassingCountsCoverDag) {
  const citygen::GridCity city({4, 4, 1.0, {0.0, 0.0}});
  const graph::RoadNetwork& net = city.network();
  std::vector<traffic::TrafficFlow> flows{traffic::make_shortest_path_flow(
      net, city.node_at(0, 0), city.node_at(3, 3), 7.0)};
  const traffic::ThresholdUtility utility(100.0);
  const FlexibleProblem model(net, flows, city.node_at(1, 1), utility);
  // Every node is inside the corner-to-corner rectangle, so the one flow
  // passes each of them, not only its recorded path's 7.
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
    ASSERT_EQ(model.reach_at(v).size(), 1u) << "node " << v;
    EXPECT_EQ(model.reach_at(v)[0].flow, 0u) << "node " << v;
  }
}

TEST(FlexibleProblem, ValidatesInput) {
  const auto net = testing::line_network(4);
  std::vector<traffic::TrafficFlow> flows{
      traffic::make_shortest_path_flow(net, 0, 3, 1.0)};
  const traffic::ThresholdUtility utility(10.0);
  EXPECT_THROW(FlexibleProblem(net, flows, 9, utility), std::out_of_range);
  flows[0].path = {0, 2, 3};  // not a walk
  EXPECT_THROW(FlexibleProblem(net, flows, 0, utility), std::invalid_argument);
}

TEST(FlexibleProblem, CustomersValidation) {
  const auto net = testing::line_network(4);
  std::vector<traffic::TrafficFlow> flows{
      traffic::make_shortest_path_flow(net, 0, 3, 1.0)};
  const traffic::ThresholdUtility utility(10.0);
  const FlexibleProblem model(net, flows, 0, utility);
  EXPECT_THROW(model.customers(1, 0.0), std::out_of_range);
  EXPECT_DOUBLE_EQ(model.customers(0, graph::kUnreachable), 0.0);
}

}  // namespace
}  // namespace rap::manhattan
