#include "src/traffic/detour.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "tests/testing/builders.h"
#include "tests/testing/shortest_paths.h"

namespace rap::traffic {
namespace {

using testing::Fig4;

TEST(DetourDistance, ClampsAtZeroAndAnyUnreachableLegIsUnreachable) {
  EXPECT_EQ(detour_distance(2.0, 3.0, 1.0), 4.0);
  EXPECT_EQ(detour_distance(1.0, 2.0, 3.0), 0.0);  // shop on the route
  EXPECT_EQ(detour_distance(0.0, 1.0, 5.0), 0.0);  // would be negative
  constexpr double kInf = graph::kUnreachable;
  EXPECT_EQ(detour_distance(kInf, 1.0, 1.0), kInf);
  EXPECT_EQ(detour_distance(1.0, kInf, 1.0), kInf);
  EXPECT_EQ(detour_distance(1.0, 1.0, kInf), kInf);
  EXPECT_EQ(detour_distance(kInf, kInf, kInf), kInf);
}

TEST(DetourCalculator, Fig4HandComputedValues) {
  const Fig4 fig;
  const DetourCalculator calc(fig.net, Fig4::shop);
  // T(2,5), path V2 V3 V5: detours 2, 4, 6 (Section III-C's numbers).
  const auto d25 = calc.detours_along_path(fig.flows[0]);
  ASSERT_EQ(d25.size(), 3u);
  EXPECT_DOUBLE_EQ(d25[0], 2.0);
  EXPECT_DOUBLE_EQ(d25[1], 4.0);
  EXPECT_DOUBLE_EQ(d25[2], 6.0);
  // T(3,5): 4 at V3, 6 at V5.
  const auto d35 = calc.detours_along_path(fig.flows[1]);
  EXPECT_DOUBLE_EQ(d35[0], 4.0);
  EXPECT_DOUBLE_EQ(d35[1], 6.0);
  // T(4,3): 2 at V4, 4 at V3.
  const auto d43 = calc.detours_along_path(fig.flows[2]);
  EXPECT_DOUBLE_EQ(d43[0], 2.0);
  EXPECT_DOUBLE_EQ(d43[1], 4.0);
  // T(5,6): 6 at V5, 8 at V6 (the paper notes V6 exceeds D = 6).
  const auto d56 = calc.detours_along_path(fig.flows[3]);
  EXPECT_DOUBLE_EQ(d56[0], 6.0);
  EXPECT_DOUBLE_EQ(d56[1], 8.0);
}

TEST(DetourCalculator, ShopOnRouteCostsNothing) {
  const auto net = testing::line_network(5);
  const DetourCalculator calc(net, 2);
  const auto flow = make_shortest_path_flow(net, 0, 4, 1.0);
  const auto detours = calc.detours_along_path(flow);
  // Receiving the ad before the shop (indices 0..2) costs nothing; at node
  // 3 the driver must backtrack 1 each way; at 4, 2 each way.
  EXPECT_DOUBLE_EQ(detours[0], 0.0);
  EXPECT_DOUBLE_EQ(detours[1], 0.0);
  EXPECT_DOUBLE_EQ(detours[2], 0.0);
  EXPECT_DOUBLE_EQ(detours[3], 2.0);
  EXPECT_DOUBLE_EQ(detours[4], 4.0);
}

TEST(DetourCalculator, DistanceAccessors) {
  const Fig4 fig;
  const DetourCalculator calc(fig.net, Fig4::shop);
  EXPECT_DOUBLE_EQ(calc.to_shop()[Fig4::V3], 2.0);
  EXPECT_DOUBLE_EQ(calc.from_shop()[Fig4::V5], 3.0);
  EXPECT_DOUBLE_EQ(calc.to_shop()[Fig4::V1], 0.0);
  EXPECT_EQ(calc.to_shop().size(), fig.net.num_nodes());
  EXPECT_EQ(calc.from_shop().size(), fig.net.num_nodes());
  EXPECT_EQ(calc.shop(), Fig4::shop);
}

TEST(DetourCalculator, UnreachableShopGivesInfiniteDetours) {
  graph::NetworkBuilder builder;
  const auto a = builder.add_node({0.0, 0.0});
  const auto b = builder.add_node({1.0, 0.0});
  const auto island = builder.add_node({9.0, 9.0});
  builder.add_two_way_edge(a, b, 1.0);
  const graph::RoadNetwork net = std::move(builder).build();
  const DetourCalculator calc(net, island);
  const auto flow = make_shortest_path_flow(net, a, b, 1.0);
  for (const double d : calc.detours_along_path(flow)) {
    EXPECT_EQ(d, graph::kUnreachable);
  }
}

TEST(DetourCalculator, ValidatesFlow) {
  const Fig4 fig;
  const DetourCalculator calc(fig.net, Fig4::shop);
  TrafficFlow bad = fig.flows[0];
  bad.path = {Fig4::V2, Fig4::V5};  // not a walk
  EXPECT_THROW(calc.detours_along_path(bad), std::invalid_argument);
}

// detours_along_path checks only what it reads: a non-empty walk (every node
// in range) that ends at the flow's destination.
TEST(DetourCalculator, RejectsPathsItCannotPrice) {
  const Fig4 fig;
  const DetourCalculator calc(fig.net, Fig4::shop);
  TrafficFlow bad = fig.flows[0];
  bad.path.clear();
  EXPECT_THROW(calc.detours_along_path(bad), std::invalid_argument);
  bad.path = {99};
  EXPECT_THROW(calc.detours_along_path(bad), std::invalid_argument);
  bad.path = {Fig4::V2, 99};
  EXPECT_THROW(calc.detours_along_path(bad), std::invalid_argument);
  bad = fig.flows[0];
  bad.destination = Fig4::V3;  // path still ends at V5
  EXPECT_THROW(calc.detours_along_path(bad), std::invalid_argument);
  bad.destination = 99;
  EXPECT_THROW(calc.detours_along_path(bad), std::invalid_argument);
}

// On a shortest-path flow the distance left along the path is the network
// distance, so the along-path detours match the shortest-path reading.
TEST(DetourCalculator, ModesAgreeOnShortestPathFlows) {
  util::Rng rng(55);
  const auto net = testing::random_network(5, 5, 8, rng);
  const auto flows = testing::random_flows(net, 20, rng);
  const DetourCalculator along(net, 7);
  for (const auto& flow : flows) {
    const auto a = along.detours_along_path(flow);
    const auto b = testing::shortest_path_detours(net, 7, flow);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-9) << "position " << i;
    }
  }
}

TEST(DetourCalculator, ShortestPathModeClampsWanderingRoutes) {
  // A wandering (non-shortest) path: along-path d''' is inflated, which
  // reduces the computed detour; the shortest-path reading uses the true
  // distance.
  const auto net = testing::line_network(5);
  TrafficFlow flow;
  flow.origin = 0;
  flow.destination = 2;
  flow.path = {0, 1, 2, 3, 2};  // wanders to 3 and back
  flow.daily_vehicles = 1.0;
  const DetourCalculator along(net, 4);
  const auto da = along.detours_along_path(flow);
  const auto ds = testing::shortest_path_detours(net, 4, flow);
  // At position 0: d' = 4, d'' = dist(4->2) = 2; along-path d''' = 4
  // (0->1->2->3->2) vs true shortest 2.
  EXPECT_DOUBLE_EQ(da[0], 2.0);
  EXPECT_DOUBLE_EQ(ds[0], 4.0);
}

// The paper's literal preprocessing prices detours off an all-pairs table,
// here Floyd–Warshall's. Its reading d' + d'' - d''' must match the
// per-destination reverse-Dijkstra reading, and, on these shortest-path
// flows, the tree-built calculator.
TEST(ApspDetour, MatchesOnRandomNetworksBothModes) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    util::Rng rng(seed * 13 + 1);
    const auto net = testing::random_network(4, 4, 6, rng);
    const auto flows = testing::random_flows(net, 10, rng);
    const auto shop = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
    const std::vector<std::vector<double>> dist = graph::floyd_warshall(net);
    const DetourCalculator along(net, shop);
    for (const auto& flow : flows) {
      const auto got_along = along.detours_along_path(flow);
      const auto got_shortest =
          testing::shortest_path_detours(net, shop, flow);
      ASSERT_EQ(got_along.size(), flow.path.size());
      ASSERT_EQ(got_shortest.size(), flow.path.size());
      for (std::size_t i = 0; i < flow.path.size(); ++i) {
        const double d1 = dist[flow.path[i]][shop];
        const double d2 = dist[shop][flow.destination];
        const double d3 = dist[flow.path[i]][flow.destination];
        const double want = d1 == graph::kUnreachable ||
                                    d2 == graph::kUnreachable ||
                                    d3 == graph::kUnreachable
                                ? graph::kUnreachable
                                : std::max(0.0, d1 + d2 - d3);
        if (want == graph::kUnreachable) {
          EXPECT_EQ(got_shortest[i], graph::kUnreachable) << "seed " << seed;
          EXPECT_EQ(got_along[i], graph::kUnreachable) << "seed " << seed;
        } else {
          EXPECT_NEAR(got_shortest[i], want, 1e-9) << "seed " << seed;
          EXPECT_NEAR(got_along[i], want, 1e-9) << "seed " << seed;
        }
      }
    }
  }
}

// Theorem 1: on a shortest-path flow, detour distances are non-decreasing
// along the path — the first RAP always offers the best detour.
class Theorem1 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem1, DetourNonDecreasingAlongPath) {
  util::Rng rng(GetParam() * 13 + 3);
  const auto net = testing::random_network(
      4 + rng.next_below(3), 4 + rng.next_below(3), rng.next_below(10), rng);
  const auto shop = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
  const DetourCalculator calc(net, shop);
  for (const auto& flow : testing::random_flows(net, 10, rng)) {
    const auto detours = calc.detours_along_path(flow);
    for (std::size_t i = 1; i < detours.size(); ++i) {
      EXPECT_LE(detours[i - 1], detours[i] + 1e-9)
          << "flow " << flow.origin << "->" << flow.destination
          << " at position " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, Theorem1,
                         ::testing::Range<std::uint64_t>(0, 20));

// Detours are always >= 0 and finite on strongly connected networks.
class DetourSanity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetourSanity, NonNegativeAndFinite) {
  util::Rng rng(GetParam() + 900);
  const auto net = testing::random_network(4, 4, 6, rng);
  ASSERT_TRUE(net.is_strongly_connected());
  const auto shop = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
  const DetourCalculator calc(net, shop);
  for (const auto& flow : testing::random_flows(net, 8, rng)) {
    for (const double d : calc.detours_along_path(flow)) {
      EXPECT_GE(d, 0.0);
      EXPECT_LT(d, graph::kUnreachable);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DetourSanity,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace rap::traffic
