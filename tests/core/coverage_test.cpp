// The coverage table built from fixed paths: core::fixed_path_coverage and
// the CoverageBuilder behind it (the IncidenceFig4/IncidenceIndex suites
// keep the names they had when the table was traffic::IncidenceIndex).
#include "src/core/problem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "tests/testing/builders.h"

namespace rap::traffic {
namespace {

using core::CoverageModel;
using testing::Fig4;

/// The fixed-path table over `flows` at `max_detour`; its reach lists
/// never read the utility.
CoverageModel index_of(const graph::RoadNetwork& net,
                       const std::vector<TrafficFlow>& flows,
                       const DetourSource& detours,
                       double max_detour = graph::kUnreachable) {
  static const ThresholdUtility utility(1.0);
  return core::fixed_path_coverage(net, flows, graph::kInvalidNode, utility,
                                   detours, max_detour);
}

/// Flow `f`'s entry at `node` (reach lists are in ascending flow order, so
/// a binary search finds it); nullptr when `f` does not pass `node`.
const NodeIncidence* entry_of(const CoverageModel& index, graph::NodeId node,
                              FlowIndex f) {
  const auto list = index.reach_at(node);
  const auto it = std::lower_bound(
      list.begin(), list.end(), f,
      [](const NodeIncidence& entry, FlowIndex flow) {
        return entry.flow < flow;
      });
  return it != list.end() && it->flow == f ? &*it : nullptr;
}

/// Flow `f`'s stops read back through reach_at: its distinct path nodes in
/// path order, each with its first path position and its indexed detour.
struct Stop {
  graph::NodeId node = graph::kInvalidNode;
  std::size_t path_index = 0;
  double detour = graph::kUnreachable;
};

std::vector<Stop> stops_of(const CoverageModel& index, const TrafficFlow& flow,
                           FlowIndex f) {
  std::vector<Stop> stops;
  for (std::size_t i = 0; i < flow.path.size(); ++i) {
    const graph::NodeId v = flow.path[i];
    if (std::any_of(stops.begin(), stops.end(),
                    [v](const Stop& stop) { return stop.node == v; })) {
      continue;
    }
    const NodeIncidence* entry = entry_of(index, v, f);
    if (entry == nullptr) {
      ADD_FAILURE() << "flow " << f << " missing from reach_at(" << v << ")";
      continue;
    }
    stops.push_back({v, i, entry->detour});
  }
  return stops;
}

/// Entries of flow `f` over every reach list.
std::size_t entries_of(const CoverageModel& index, FlowIndex f) {
  std::size_t count = 0;
  for (graph::NodeId v = 0; v < index.num_nodes(); ++v) {
    count += entry_of(index, v, f) != nullptr ? 1 : 0;
  }
  return count;
}

class IncidenceFig4 : public ::testing::Test {
 protected:
  IncidenceFig4()
      : calc_(fig_.net, Fig4::shop),
        index_(index_of(fig_.net, fig_.flows, calc_)) {}

  Fig4 fig_;
  DetourCalculator calc_;
  CoverageModel index_;
};

TEST_F(IncidenceFig4, Dimensions) {
  EXPECT_EQ(index_.num_nodes(), 6u);
  EXPECT_EQ(index_.num_flows(), 4u);
}

TEST_F(IncidenceFig4, FlowsAtV3) {
  // V3 lies on T(2,5), T(3,5), T(4,3) — all with detour 4.
  const auto at_v3 = index_.reach_at(Fig4::V3);
  ASSERT_EQ(at_v3.size(), 3u);
  for (const NodeIncidence& inc : at_v3) {
    EXPECT_DOUBLE_EQ(inc.detour, 4.0);
  }
}

TEST_F(IncidenceFig4, NoFlowsAtShop) {
  EXPECT_TRUE(index_.reach_at(Fig4::V1).empty());
}

TEST_F(IncidenceFig4, StopsInPathOrder) {
  const auto stops = stops_of(index_, fig_.flows[0], 0);  // T(2,5): V2, V3, V5
  ASSERT_EQ(stops.size(), 3u);
  EXPECT_EQ(entries_of(index_, 0), 3u);  // and at no other node
  EXPECT_EQ(stops[0].node, Fig4::V2);
  EXPECT_EQ(stops[1].node, Fig4::V3);
  EXPECT_EQ(stops[2].node, Fig4::V5);
  EXPECT_EQ(stops[0].path_index, 0u);
  EXPECT_DOUBLE_EQ(stops[0].detour, 2.0);
  EXPECT_DOUBLE_EQ(stops[2].detour, 6.0);
}

TEST_F(IncidenceFig4, PassingVehicles) {
  // V3: 6 + 3 + 6 = 15 vehicles; V5: 6 + 3 + 2 = 11; V6: 2.
  const std::vector<double> vehicles =
      passing_traffic(fig_.net, fig_.flows).vehicles;
  EXPECT_DOUBLE_EQ(vehicles[Fig4::V3], 15.0);
  EXPECT_DOUBLE_EQ(vehicles[Fig4::V5], 11.0);
  EXPECT_DOUBLE_EQ(vehicles[Fig4::V6], 2.0);
  EXPECT_DOUBLE_EQ(vehicles[Fig4::V1], 0.0);
}

TEST_F(IncidenceFig4, PassingFlowCounts) {
  const std::vector<std::uint32_t> counts =
      passing_traffic(fig_.net, fig_.flows).flows;
  EXPECT_EQ(counts[Fig4::V3], 3u);
  EXPECT_EQ(counts[Fig4::V5], 3u);
  EXPECT_EQ(counts[Fig4::V2], 1u);
  EXPECT_EQ(counts[Fig4::V1], 0u);
}

TEST_F(IncidenceFig4, BoundsChecked) {
  EXPECT_THROW(index_.reach_at(6), std::out_of_range);
}

TEST(IncidenceIndex, RepeatedNodeKeepsMinimumDetour) {
  // Path that revisits node 1: the stop records the minimum detour.
  const auto net = testing::line_network(4);
  TrafficFlow flow;
  flow.origin = 0;
  flow.destination = 1;
  flow.path = {0, 1, 2, 1};
  flow.daily_vehicles = 5.0;
  const DetourCalculator calc(net, 3);
  const std::vector<TrafficFlow> flows{flow};
  const CoverageModel index = index_of(net, flows, calc);
  const auto stops = stops_of(index, flow, 0);
  ASSERT_EQ(stops.size(), 3u);  // nodes 0, 1, 2 (1 deduped)
  EXPECT_EQ(index.num_entries(), 3u);
  EXPECT_EQ(index.reach_at(1).size(), 1u);
  // Node 1 is visited at positions 1 and 3; its detour is the min of both.
  const auto path_detours = calc.detours_along_path(flow);
  EXPECT_DOUBLE_EQ(stops[1].detour,
                   std::min(path_detours[1], path_detours[3]));
}

/// Prices every path with fixed, non-monotone detours, so a repeated node's
/// later visit can be the cheaper one.
class ScriptedDetours final : public DetourSource {
 public:
  explicit ScriptedDetours(std::vector<double> detours)
      : detours_(std::move(detours)) {}
 private:
  void price_path(const TrafficFlow& flow,
                  std::span<double> out) const override {
    std::copy_n(detours_.begin(), flow.path.size(), out.begin());
  }

  std::vector<double> detours_;
};

TEST(IncidenceIndex, RepeatedNodeKeepsMinimumOverEveryVisit) {
  // Node 1 is visited at positions 1 (detour 3) and 3 (detour 2): the later
  // visit wins; node 2's single visit keeps its own detour.
  const auto net = testing::line_network(4);
  TrafficFlow flow;
  flow.origin = 0;
  flow.destination = 1;
  flow.path = {0, 1, 2, 1};
  flow.daily_vehicles = 5.0;
  const ScriptedDetours detours({5.0, 3.0, 1.0, 2.0});
  const std::vector<TrafficFlow> flows{flow, flow};
  const CoverageModel index = index_of(net, flows, detours);
  ASSERT_EQ(index.reach_at(1).size(), 2u);
  for (const NodeIncidence& entry : index.reach_at(1)) {
    EXPECT_EQ(entry.detour, 2.0);
  }
  EXPECT_EQ(index.reach_at(2)[0].detour, 1.0);
  EXPECT_EQ(index.reach_at(0)[1].detour, 5.0);
}

TEST(IncidenceIndex, MinimumOverVisitsDecidesWhatIsKept) {
  // Node 1's first visit (detour 3) is beyond max_detour 2.5 but its second
  // (detour 2) is not, so it is kept at 2; node 0 (detour 5) is dropped.
  const auto net = testing::line_network(4);
  TrafficFlow flow;
  flow.origin = 0;
  flow.destination = 1;
  flow.path = {0, 1, 2, 1};
  flow.daily_vehicles = 5.0;
  const ScriptedDetours detours({5.0, 3.0, 1.0, 2.0});
  const std::vector<TrafficFlow> flows{flow, flow};
  const CoverageModel index = index_of(net, flows, detours, 2.5);
  EXPECT_TRUE(index.reach_at(0).empty());
  ASSERT_EQ(index.reach_at(1).size(), 2u);
  EXPECT_EQ(index.reach_at(1)[0].flow, 0u);
  EXPECT_EQ(index.reach_at(1)[1].flow, 1u);
  EXPECT_EQ(index.reach_at(1)[1].detour, 2.0);
  EXPECT_EQ(index.num_entries(), 4u);
}

TEST_F(IncidenceFig4, MaxDetourDropsOnlyEntriesBeyondIt) {
  // At max_detour 4, V5's entries (detour 6 for T(2,5)) go; every kept entry
  // matches the full index.
  const CoverageModel pruned = index_of(fig_.net, fig_.flows, calc_, 4.0);
  EXPECT_LT(pruned.num_entries(), index_.num_entries());
  for (graph::NodeId v = 0; v < index_.num_nodes(); ++v) {
    std::vector<NodeIncidence> want;
    for (const NodeIncidence& entry : index_.reach_at(v)) {
      if (entry.detour <= 4.0) want.push_back(entry);
    }
    const auto got = pruned.reach_at(v);
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].flow, want[i].flow);
      EXPECT_EQ(got[i].detour, want[i].detour);
    }
  }
  EXPECT_EQ(entry_of(pruned, Fig4::V5, 0), nullptr);
}

TEST(IncidenceIndex, TransposeConsistency) {
  // The (node, flow, detour) triples of the reach lists are exactly the
  // transpose of the flows' priced paths (minimum detour per repeated node),
  // and every list is in ascending flow order.
  util::Rng rng(77);
  const auto net = testing::random_network(4, 4, 6, rng);
  const auto flows = testing::random_flows(net, 15, rng);
  const DetourCalculator calc(net, 5);
  const CoverageModel index = index_of(net, flows, calc);

  std::map<std::pair<graph::NodeId, FlowIndex>, double> from_nodes;
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
    const auto list = index.reach_at(v);
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(list[i - 1].flow, list[i].flow) << "node " << v;
      }
      from_nodes[{v, list[i].flow}] = list[i].detour;
    }
  }
  std::map<std::pair<graph::NodeId, FlowIndex>, double> from_flows;
  for (FlowIndex f = 0; f < flows.size(); ++f) {
    const auto detours = calc.detours_along_path(flows[f]);
    for (std::size_t i = 0; i < detours.size(); ++i) {
      const auto [it, inserted] =
          from_flows.emplace(std::pair{flows[f].path[i], f}, detours[i]);
      if (!inserted) it->second = std::min(it->second, detours[i]);
    }
    for (const Stop& stop : stops_of(index, flows[f], f)) {
      EXPECT_EQ(stop.detour, from_flows.at({stop.node, f}));
    }
  }
  EXPECT_EQ(from_nodes, from_flows);
  EXPECT_EQ(index.num_entries(), from_flows.size());
}

TEST(IncidenceIndex, StopsNonDecreasingAlongShortestPaths) {
  // Theorem 1 read back through the index: on shortest-path flows a flow's
  // indexed detours never decrease along its path.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed * 31 + 5);
    const auto net = testing::random_network(5, 5, rng.next_below(8), rng);
    const auto flows = testing::random_flows(net, 12, rng);
    const DetourCalculator calc(
        net, static_cast<graph::NodeId>(rng.next_below(net.num_nodes())));
    const CoverageModel index = index_of(net, flows, calc);
    for (FlowIndex f = 0; f < flows.size(); ++f) {
      const auto stops = stops_of(index, flows[f], f);
      for (std::size_t i = 1; i < stops.size(); ++i) {
        EXPECT_LE(stops[i - 1].detour, stops[i].detour + 1e-9)
            << "seed " << seed << " flow " << f << " stop " << i;
      }
    }
  }
}

TEST(IncidenceIndex, EmptyFlowsYieldEmptyIndex) {
  const auto net = testing::line_network(3);
  const DetourCalculator calc(net, 0);
  const CoverageModel index = index_of(net, {}, calc);
  EXPECT_EQ(index.num_flows(), 0u);
  for (graph::NodeId v = 0; v < 3; ++v) {
    EXPECT_TRUE(index.reach_at(v).empty());
  }
}

TEST(IncidenceIndex, ValidatesFlows) {
  const auto net = testing::line_network(3);
  const DetourCalculator calc(net, 0);
  TrafficFlow bad;
  bad.origin = 0;
  bad.destination = 2;
  bad.path = {0, 2};  // not a walk
  bad.daily_vehicles = 1.0;
  const std::vector<TrafficFlow> flows{bad};
  EXPECT_THROW(index_of(net, flows, calc), std::invalid_argument);
}

TEST(CoverageBuilder, RejectsBadWeightsAndPasses) {
  const auto net = testing::line_network(3);
  const ThresholdUtility utility(1.0);
  core::CoverageBuilder builder(net, 0, utility, graph::kUnreachable);
  EXPECT_THROW(builder.add_pass(0, 1.0), std::logic_error);  // no open flow
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(builder.add_flow(nan, 1.0), std::invalid_argument);
  EXPECT_THROW(builder.add_flow(inf, 1.0), std::invalid_argument);
  EXPECT_THROW(builder.add_flow(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(builder.add_flow(1.0, 1.5), std::invalid_argument);
  EXPECT_THROW(builder.add_flow(1.0, -0.5), std::invalid_argument);
  EXPECT_THROW(builder.add_flow(1.0, nan), std::invalid_argument);
  builder.add_flow(3.0, 0.5);
  EXPECT_THROW(builder.add_pass(3, 1.0), std::out_of_range);
  builder.add_pass(1, 0.5);
  builder.add_pass(1, 0.25);  // a repeat keeps the minimum
  const CoverageModel model = std::move(builder).build();
  EXPECT_EQ(model.num_flows(), 1u);  // the rejected flows never opened
  ASSERT_EQ(model.reach_at(1).size(), 1u);
  EXPECT_EQ(model.reach_at(1)[0].detour, 0.25);
  EXPECT_EQ(model.customers(0, 0.25), 1.5);  // alpha * population
}

}  // namespace
}  // namespace rap::traffic
