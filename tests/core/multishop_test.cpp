#include "src/core/multishop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/graph/dijkstra.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

using testing::Fig4;

TEST(MultiShopDetour, RejectsEmptyShopList) {
  Fig4 fig;
  EXPECT_THROW(MultiShopDetour(fig.net, {}), std::invalid_argument);
}

TEST(MultiShopDetour, RejectsBadShopId) {
  Fig4 fig;
  EXPECT_THROW(MultiShopDetour(fig.net, {99}), std::out_of_range);
}

TEST(MultiShopDetour, SingleShopMatchesCalculator) {
  Fig4 fig;
  const MultiShopDetour multi(fig.net, {Fig4::shop});
  const traffic::DetourCalculator single(fig.net, Fig4::shop);
  for (const auto& flow : fig.flows) {
    EXPECT_EQ(multi.detours_along_path(flow), single.detours_along_path(flow));
  }
}

TEST(MultiShopDetour, TakesMinimumOverShops) {
  Fig4 fig;
  const MultiShopDetour multi(fig.net, {Fig4::V1, Fig4::V6});
  const traffic::DetourCalculator at_v1(fig.net, Fig4::V1);
  const traffic::DetourCalculator at_v6(fig.net, Fig4::V6);
  for (const auto& flow : fig.flows) {
    const auto combined = multi.detours_along_path(flow);
    const auto a = at_v1.detours_along_path(flow);
    const auto b = at_v6.detours_along_path(flow);
    for (std::size_t i = 0; i < combined.size(); ++i) {
      EXPECT_DOUBLE_EQ(combined[i], std::min(a[i], b[i]));
    }
  }
}

// A random network re-priced with non-integer lengths, plus a trap: node 0
// leads one way into `trap`, which reaches only itself and its neighbour.
graph::RoadNetwork network_with_trap(util::Rng& rng, graph::NodeId& trap) {
  const graph::RoadNetwork base = testing::random_network(5, 4, 5, rng);
  graph::NetworkBuilder builder;
  for (std::size_t v = 0; v < base.num_nodes(); ++v) {
    builder.add_node(base.position(static_cast<graph::NodeId>(v)));
  }
  for (const graph::Edge& e : base.edges()) {
    builder.add_edge(e.from, e.to, e.length * (1.0 + rng.next_double()) / 3.0);
  }
  trap = builder.add_node({-1.0, -1.0});
  const graph::NodeId beyond = builder.add_node({-2.0, -1.0});
  builder.add_edge(0, trap, 0.7 + rng.next_double());
  builder.add_two_way_edge(trap, beyond, 0.3 + rng.next_double());
  return std::move(builder).build();
}

TEST(MultiShopDetour, EqualsPerShopMinimumBitwise) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    graph::NodeId trap = graph::kInvalidNode;
    const graph::RoadNetwork net = network_with_trap(rng, trap);
    const std::size_t n = net.num_nodes();
    std::vector<traffic::TrafficFlow> flows;
    while (flows.size() < 20) {
      const auto i = static_cast<graph::NodeId>(rng.next_below(n));
      const auto j = static_cast<graph::NodeId>(rng.next_below(n));
      if (i == j || !graph::shortest_path(net, i, j)) continue;
      flows.push_back(
          traffic::make_shortest_path_flow(net, i, j, 1.0, 1.0, 1.0));
    }
    // 1-4 shops; the trap, which cannot reach most destinations, among them.
    const std::size_t count = 1 + (seed - 1) % 4;
    std::vector<graph::NodeId> shops;
    for (std::size_t s = 0; s + 1 < count; ++s) {
      shops.push_back(static_cast<graph::NodeId>(rng.next_below(n)));
    }
    shops.insert(shops.begin() + static_cast<std::ptrdiff_t>(seed % count),
                 trap);

    const MultiShopDetour multi(net, shops);
    std::vector<traffic::DetourCalculator> singles;
    for (const graph::NodeId shop : shops) singles.emplace_back(net, shop);
    for (const traffic::TrafficFlow& flow : flows) {
      std::vector<double> want(flow.path.size(), graph::kUnreachable);
      for (const traffic::DetourCalculator& single : singles) {
        const std::vector<double> d = single.detours_along_path(flow);
        for (std::size_t i = 0; i < want.size(); ++i) {
          want[i] = std::min(want[i], d[i]);
        }
      }
      const std::vector<double> got = multi.detours_along_path(flow);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "seed " << seed << " stop " << i;
      }
    }
  }
}

TEST(MultiShop, MoreShopsNeverReduceCustomers) {
  util::Rng rng(41);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 15, rng);
  const traffic::LinearUtility utility(8.0);

  const auto one = make_multishop_problem(net, flows, {3}, utility);
  const auto two = make_multishop_problem(net, flows, {3, 20}, utility);
  for (std::size_t k = 1; k <= 4; ++k) {
    const double v1 = composite_greedy_placement(one, k).customers;
    const double v2 = composite_greedy_placement(two, k).customers;
    EXPECT_GE(v2, v1 - 1e-9) << "k=" << k;
  }
}

TEST(MultiShop, FixedPlacementImprovesWithExtraShop) {
  util::Rng rng(43);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 15, rng);
  const traffic::LinearUtility utility(8.0);
  const auto one = make_multishop_problem(net, flows, {0}, utility);
  const auto two = make_multishop_problem(net, flows, {0, 24}, utility);
  const Placement nodes{5, 12, 18};
  EXPECT_GE(evaluate_placement(two, nodes),
            evaluate_placement(one, nodes) - 1e-9);
}

TEST(MultiShop, ProblemReportsNoSingleShop) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const auto problem =
      make_multishop_problem(fig.net, fig.flows, {Fig4::V1, Fig4::V6}, utility);
  EXPECT_EQ(problem.shop(), graph::kInvalidNode);
  EXPECT_EQ(problem.num_flows(), 4u);
}

TEST(MultiShop, EquivalentToSingleWhenShopsCoincide) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const PlacementProblem single(fig.net, fig.flows, Fig4::shop, utility);
  const auto multi = make_multishop_problem(fig.net, fig.flows,
                                            {Fig4::shop, Fig4::shop}, utility);
  const Placement nodes{Fig4::V2, Fig4::V4};
  EXPECT_DOUBLE_EQ(evaluate_placement(single, nodes),
                   evaluate_placement(multi, nodes));
}

TEST(MultiShop, ShopAtEveryFlowOriginAttractsEverything) {
  // With a shop at each flow's origin, every flow has a zero-detour option
  // at its first intersection: placing RAPs there attracts alpha * everyone.
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  std::vector<graph::NodeId> shops;
  Placement raps;
  for (const auto& flow : fig.flows) {
    shops.push_back(flow.origin);
    raps.push_back(flow.origin);
  }
  const auto problem =
      make_multishop_problem(fig.net, fig.flows, shops, utility);
  EXPECT_DOUBLE_EQ(evaluate_placement(problem, raps),
                   traffic::total_population(fig.flows));
}

}  // namespace
}  // namespace rap::core
