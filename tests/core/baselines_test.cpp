#include "src/core/baselines.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/core/evaluator.h"
#include "src/core/exhaustive.h"
#include "src/geo/bbox.h"
#include "src/obs/telemetry.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

using testing::Fig4;

class BaselinesFig4 : public ::testing::Test {
 protected:
  BaselinesFig4()
      : utility_(Fig4::threshold),
        problem_(fig_.net, fig_.flows, Fig4::shop, utility_) {}

  Fig4 fig_;
  traffic::ThresholdUtility utility_;
  PlacementProblem problem_;
  traffic::PassingTraffic passing_ =
      traffic::passing_traffic(fig_.net, fig_.flows);
};

TEST_F(BaselinesFig4, AllRejectZeroK) {
  util::Rng rng(1);
  EXPECT_THROW(max_cardinality_placement(problem_, passing_, 0),
               std::invalid_argument);
  EXPECT_THROW(max_vehicles_placement(problem_, passing_, 0),
               std::invalid_argument);
  EXPECT_THROW(max_customers_placement(problem_, 0), std::invalid_argument);
  EXPECT_THROW(random_placement(problem_, 0, rng), std::invalid_argument);
}

TEST_F(BaselinesFig4, TrafficRankingsRejectPassingTrafficOfAnotherSize) {
  traffic::PassingTraffic short_by_one = passing_;
  short_by_one.flows.pop_back();
  short_by_one.vehicles.pop_back();
  EXPECT_THROW(max_cardinality_placement(problem_, short_by_one, 2),
               std::invalid_argument);
  EXPECT_THROW(max_vehicles_placement(problem_, short_by_one, 2),
               std::invalid_argument);
}

TEST_F(BaselinesFig4, MaxCardinalityRanking) {
  // Flow counts: V3 and V5 see 3 flows, V2/V4/V6 one, V1 none.
  const PlacementResult result =
      max_cardinality_placement(problem_, passing_, 3);
  EXPECT_EQ(result.nodes[0], Fig4::V3);  // tie with V5 broken by id
  EXPECT_EQ(result.nodes[1], Fig4::V5);
}

TEST_F(BaselinesFig4, MaxVehiclesRanking) {
  // Vehicles: V3 = 15, V5 = 11, V2 = 6, V4 = 6, V6 = 2, V1 = 0.
  const PlacementResult result =
      max_vehicles_placement(problem_, passing_, 4);
  EXPECT_EQ(result.nodes,
            (Placement{Fig4::V3, Fig4::V5, Fig4::V2, Fig4::V4}));
}

TEST_F(BaselinesFig4, MaxCustomersRanking) {
  // Threshold singleton customers: V3 = 15, V5 = 11, V2 = V4 = 6.
  const PlacementResult result = max_customers_placement(problem_, 2);
  EXPECT_EQ(result.nodes, (Placement{Fig4::V3, Fig4::V5}));
  EXPECT_DOUBLE_EQ(result.customers, 17.0);
}

TEST_F(BaselinesFig4, MaxCustomersOptimalAtKOne) {
  const double ranked = max_customers_placement(problem_, 1).customers;
  const double opt = exhaustive_optimal_placement(problem_, 1).customers;
  EXPECT_DOUBLE_EQ(ranked, opt);
}

TEST_F(BaselinesFig4, ValueIsEvaluatedJointly) {
  // MaxCustomers ranks nodes independently; the reported value must still
  // deduplicate overlapping coverage via the evaluator.
  const PlacementResult result = max_customers_placement(problem_, 2);
  EXPECT_NEAR(result.customers, evaluate_placement(problem_, result.nodes),
              1e-12);
  EXPECT_LT(result.customers, 15.0 + 11.0);  // naive sum double-counts
}

TEST_F(BaselinesFig4, KLargerThanNetworkIsClamped) {
  util::Rng rng(2);
  EXPECT_EQ(max_cardinality_placement(problem_, passing_, 100).nodes.size(),
            6u);
  EXPECT_EQ(random_placement(problem_, 100, rng).nodes.size(), 6u);
}

TEST_F(BaselinesFig4, KClampIsRecordedOncePerCall) {
  // Each baseline clamps through core::checked_budget: k = 6 + 3 records
  // the 3 surplus RAPs on the gauge and one clamp event.
  util::Rng rng(4);
  const std::size_t k = problem_.num_nodes() + 3;
  const std::vector<std::pair<const char*, std::function<PlacementResult()>>>
      baselines{
          {"max cardinality",
           [&] { return max_cardinality_placement(problem_, passing_, k); }},
          {"max vehicles",
           [&] { return max_vehicles_placement(problem_, passing_, k); }},
          {"max customers",
           [&] { return max_customers_placement(problem_, k); }},
          {"random", [&] { return random_placement(problem_, k, rng); }},
      };
  for (const auto& [name, run] : baselines) {
    obs::Telemetry telemetry;
    {
      const obs::TelemetryScope scope(telemetry);
      EXPECT_EQ(run().nodes.size(), problem_.num_nodes()) << name;
    }
    EXPECT_EQ(telemetry.metrics.gauge("placement.k_clamped").value(), 3.0)
        << name;
    EXPECT_EQ(telemetry.metrics.counter("placement.k_clamp_events").value(),
              1u)
        << name;
  }
}

TEST_F(BaselinesFig4, RandomPlacementStaysInSquare) {
  // D = 6 around V1 covers the whole tiny network; shrink the utility range
  // via a different problem to test the square restriction.
  const traffic::ThresholdUtility tight(2.0);
  const PlacementProblem problem(fig_.net, fig_.flows, Fig4::shop, tight);
  const geo::BBox square =
      geo::BBox::centered_square(fig_.net.position(Fig4::shop), 2.0);
  util::Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const PlacementResult result = random_placement(problem, 2, rng);
    for (const graph::NodeId v : result.nodes) {
      EXPECT_TRUE(square.contains(fig_.net.position(v)));
    }
  }
}

TEST_F(BaselinesFig4, RandomPlacementDistinctNodes) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const PlacementResult result = random_placement(problem_, 4, rng);
    const std::set<graph::NodeId> unique(result.nodes.begin(),
                                         result.nodes.end());
    EXPECT_EQ(unique.size(), result.nodes.size());
  }
}

TEST_F(BaselinesFig4, RandomPlacementIsSeedDeterministic) {
  util::Rng rng1(7);
  util::Rng rng2(7);
  EXPECT_EQ(random_placement(problem_, 3, rng1).nodes,
            random_placement(problem_, 3, rng2).nodes);
}

TEST_F(BaselinesFig4, RandomCoversAllEligibleNodesEventually) {
  util::Rng rng(9);
  std::set<graph::NodeId> seen;
  for (int trial = 0; trial < 100; ++trial) {
    for (const graph::NodeId v : random_placement(problem_, 1, rng).nodes) {
      seen.insert(v);
    }
  }
  EXPECT_EQ(seen.size(), 6u);  // D = 6 square covers the whole network
}

TEST(Baselines, RandomRequiresSingleShop) {
  testing::Fig4 fig;
  const traffic::ThresholdUtility utility(6.0);
  const PlacementProblem problem(
      fig.net, fig.flows, graph::kInvalidNode, utility,
      std::make_unique<traffic::DetourCalculator>(fig.net, Fig4::shop));
  util::Rng rng(1);
  EXPECT_THROW(random_placement(problem, 1, rng), std::invalid_argument);
}

TEST(Baselines, GreedyDominatesBaselinesOnAverage) {
  // Not guaranteed per-instance, but on average over random instances the
  // paper's Algorithm 1 should beat every baseline under the threshold
  // utility. Aggregate over seeds with a small slack.
  double greedy_total = 0.0;
  double best_baseline_total = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed * 17 + 5);
    const auto net = testing::random_network(5, 5, 6, rng);
    const auto flows = testing::random_flows(net, 20, rng);
    const traffic::ThresholdUtility utility(6.0);
    const PlacementProblem problem(net, flows, 12, utility);
    greedy_total +=
        exhaustive_optimal_placement(problem, 2, {1'000'000}).customers;
    const traffic::PassingTraffic passing = traffic::passing_traffic(net, flows);
    const double card =
        max_cardinality_placement(problem, passing, 2).customers;
    const double veh = max_vehicles_placement(problem, passing, 2).customers;
    const double cust = max_customers_placement(problem, 2).customers;
    best_baseline_total += std::max({card, veh, cust});
  }
  EXPECT_GE(greedy_total, best_baseline_total - 1e-9);
}

}  // namespace
}  // namespace rap::core
