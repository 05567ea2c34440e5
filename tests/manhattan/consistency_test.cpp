// Cross-implementation consistency: the Section IV world has two
// independent realisations in this library —
//   * GridCoverageModel: geometric (L1 distances, bounding-rectangle reach)
//   * FlexibleProblem:  graph-based (Dijkstra distances, shortest-path-DAG
//                       reach) on the grid's road network
// On an ideal full grid they must agree EXACTLY: same reach sets, same
// detours, same values for every placement, same algorithm outputs. Any
// divergence means one of the two scenario engines is wrong.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/greedy.h"
#include "src/manhattan/flexible_eval.h"
#include "src/manhattan/grid_model.h"
#include "tests/testing/builders.h"

namespace rap::manhattan {
namespace {

struct TwinModels {
  GridScenario scenario;
  std::vector<GridFlow> grid_flows;
  std::vector<traffic::TrafficFlow> net_flows;
  traffic::ThresholdUtility threshold{1.0};
  std::unique_ptr<GridCoverageModel> grid_model;
  std::unique_ptr<FlexibleProblem> flexible_model;

  TwinModels(std::size_t n, std::uint64_t seed, double range)
      : scenario(n, 1.0), threshold(range) {
    GridFlowGenSpec spec;
    spec.count = 25;
    spec.mean_vehicles = 10.0;
    spec.passengers_per_vehicle = 1.0;
    spec.alpha = 1.0;
    util::Rng rng(seed);
    grid_flows = generate_grid_flows(scenario, spec, rng);
    // Mirror each grid flow as a network flow between the same nodes.
    const citygen::GridCity& city = scenario.city();
    for (const GridFlow& flow : grid_flows) {
      net_flows.push_back(traffic::make_shortest_path_flow(
          city.network(), city.node_at(flow.entry), city.node_at(flow.exit),
          flow.daily_vehicles, flow.passengers_per_vehicle, flow.alpha));
    }
    grid_model =
        std::make_unique<GridCoverageModel>(scenario, grid_flows, threshold);
    flexible_model = std::make_unique<FlexibleProblem>(
        city.network(), net_flows, scenario.shop_node(), threshold);
  }
};

class GridVsFlexible : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridVsFlexible, IdenticalReachSetsAndDetours) {
  const TwinModels twins(7, GetParam(), 100.0);
  for (graph::NodeId v = 0; v < twins.grid_model->num_nodes(); ++v) {
    const auto geometric = twins.grid_model->reach_at(v);
    const auto graph_based = twins.flexible_model->reach_at(v);
    // Compare as sorted (flow, detour) multisets.
    std::vector<std::pair<traffic::FlowIndex, double>> a;
    std::vector<std::pair<traffic::FlowIndex, double>> b;
    for (const auto& inc : geometric) a.emplace_back(inc.flow, inc.detour);
    for (const auto& inc : graph_based) b.emplace_back(inc.flow, inc.detour);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first) << "node " << v;
      EXPECT_NEAR(a[i].second, b[i].second, 1e-9) << "node " << v;
    }
  }
}

TEST_P(GridVsFlexible, IdenticalPlacementValues) {
  const TwinModels twins(7, GetParam() + 100, 6.0);
  util::Rng rng(GetParam() + 7);
  for (int trial = 0; trial < 15; ++trial) {
    core::Placement placement;
    const std::size_t size = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < size; ++i) {
      placement.push_back(static_cast<graph::NodeId>(
          rng.next_below(twins.grid_model->num_nodes())));
    }
    EXPECT_NEAR(core::evaluate_placement(*twins.grid_model, placement),
                core::evaluate_placement(*twins.flexible_model, placement),
                1e-9);
  }
}

TEST_P(GridVsFlexible, IdenticalAlgorithmOutputs) {
  const TwinModels twins(5, GetParam() + 200, 4.0);
  for (const std::size_t k : {1u, 3u, 5u}) {
    const auto grid_alg1 =
        core::greedy_coverage_placement(*twins.grid_model, k);
    const auto flex_alg1 =
        core::greedy_coverage_placement(*twins.flexible_model, k);
    EXPECT_EQ(grid_alg1.nodes, flex_alg1.nodes) << "k=" << k;
    EXPECT_NEAR(grid_alg1.customers, flex_alg1.customers, 1e-9);

    const auto grid_alg2 =
        core::composite_greedy_placement(*twins.grid_model, k);
    const auto flex_alg2 =
        core::composite_greedy_placement(*twins.flexible_model, k);
    EXPECT_EQ(grid_alg2.nodes, flex_alg2.nodes) << "k=" << k;
    EXPECT_NEAR(grid_alg2.customers, flex_alg2.customers, 1e-9);
  }
}

TEST_P(GridVsFlexible, IdenticalPassingCounts) {
  // Both models keep every pass, so a reach list's length counts the flows
  // whose routes may pass the node. The two agree on it, and it is never
  // below the count on the recorded paths that MaxCardinality ranks by.
  const TwinModels twins(5, GetParam() + 300, 100.0);
  const traffic::PassingTraffic recorded = traffic::passing_traffic(
      twins.scenario.city().network(), twins.net_flows);
  for (graph::NodeId v = 0; v < twins.grid_model->num_nodes(); ++v) {
    const std::size_t passes = twins.grid_model->reach_at(v).size();
    EXPECT_EQ(passes, twins.flexible_model->reach_at(v).size())
        << "node " << v;
    EXPECT_GE(passes, recorded.flows[v]) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridVsFlexible,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace rap::manhattan
