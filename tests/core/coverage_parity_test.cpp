// Parity of the fixed-path coverage table's node-axis-only, flow-major
// staged construction (core::fixed_path_coverage at max_detour =
// kUnreachable, so every pass is kept) against
// a test-local copy of the earlier two-axis construction (per-flow stop
// lists transposed into the node -> flows CSR). On seeded grids with
// looping random-walk paths — repeated nodes, non-integer chord lengths,
// fractional volumes — every reach list must agree bitwise, and so must
// traffic::passing_traffic's per-node vehicle sums and flow counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/core/problem.h"
#include "src/traffic/detour.h"
#include "tests/testing/builders.h"

namespace rap::traffic {
namespace {

/// The two-axis construction as it stood before the table dropped its
/// flow -> nodes axis: collapse each flow's repeated path nodes to their
/// minimum detour in per-flow stop lists, then transpose into the node axis.
struct TwoAxisReference {
  std::vector<std::uint32_t> node_start;
  std::vector<NodeIncidence> node_entries;
  std::vector<double> vehicles_at_node;

  TwoAxisReference(const graph::RoadNetwork& net,
                   const std::vector<TrafficFlow>& flows,
                   const DetourSource& detours) {
    struct Stop {
      graph::NodeId node;
      double detour;
    };
    const std::size_t n = net.num_nodes();
    vehicles_at_node.assign(n, 0.0);
    std::vector<std::vector<Stop>> stops_per_flow(flows.size());
    std::vector<std::uint32_t> seen_at(n, ~std::uint32_t{0});
    std::vector<std::uint32_t> stop_slot(n, 0);
    for (FlowIndex f = 0; f < flows.size(); ++f) {
      const TrafficFlow& flow = flows[f];
      const std::vector<double> path_detours = detours.detours_along_path(flow);
      auto& stops = stops_per_flow[f];
      for (std::uint32_t i = 0; i < flow.path.size(); ++i) {
        const graph::NodeId v = flow.path[i];
        if (seen_at[v] == f) {
          Stop& existing = stops[stop_slot[v]];
          existing.detour = std::min(existing.detour, path_detours[i]);
          continue;
        }
        seen_at[v] = f;
        stop_slot[v] = static_cast<std::uint32_t>(stops.size());
        stops.push_back(Stop{v, path_detours[i]});
        vehicles_at_node[v] += flow.daily_vehicles;
      }
    }
    node_start.assign(n + 1, 0);
    for (const auto& stops : stops_per_flow) {
      for (const Stop& stop : stops) ++node_start[stop.node + 1];
    }
    for (std::size_t v = 1; v <= n; ++v) node_start[v] += node_start[v - 1];
    node_entries.resize(node_start.back());
    std::vector<std::uint32_t> cursor(node_start.begin(), node_start.end() - 1);
    for (FlowIndex f = 0; f < flows.size(); ++f) {
      for (const Stop& stop : stops_per_flow[f]) {
        node_entries[cursor[stop.node]++] = NodeIncidence{f, stop.detour};
      }
    }
  }
};

/// A random walk of `steps` moves along out-edges: loops and immediate
/// back-and-forth revisits included, the shape of map-matched trace paths.
TrafficFlow looping_flow(const graph::RoadNetwork& net, std::size_t steps,
                         util::Rng& rng) {
  TrafficFlow flow;
  graph::NodeId at =
      static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
  flow.path.push_back(at);
  for (std::size_t s = 0; s < steps; ++s) {
    const auto out = net.out_edges(at);
    at = out[rng.next_below(out.size())].to;
    flow.path.push_back(at);
  }
  flow.origin = flow.path.front();
  flow.destination = flow.path.back();
  flow.daily_vehicles = rng.next_double(0.1, 40.0);
  flow.passengers_per_vehicle = rng.next_double(1.0, 3.0);
  flow.alpha = rng.next_double(0.1, 1.0);
  return flow;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(IncidenceParity, NodeAxisMatchesTwoAxisConstructionBitwise) {
  std::size_t entries_checked = 0;
  std::size_t repeated_visits = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed * 7919);
    const auto net = testing::random_network(
        4 + rng.next_below(5), 4 + rng.next_below(5), rng.next_below(12), rng);
    std::vector<TrafficFlow> flows;
    const std::size_t count = 10 + rng.next_below(30);
    for (std::size_t i = 0; i < count; ++i) {
      flows.push_back(looping_flow(net, 1 + rng.next_below(25), rng));
      std::vector<graph::NodeId> sorted = flows.back().path;
      std::sort(sorted.begin(), sorted.end());
      repeated_visits += static_cast<std::size_t>(
          sorted.end() - std::unique(sorted.begin(), sorted.end()));
    }
    const auto shop =
        static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
    const DetourCalculator calc(net, shop);
    const ThresholdUtility utility(1.0);  // the table never reads it here
    const core::CoverageModel index = core::fixed_path_coverage(
        net, flows, shop, utility, calc, graph::kUnreachable);
    const TwoAxisReference want(net, flows, calc);
    const PassingTraffic passing = passing_traffic(net, flows);
    ASSERT_EQ(index.num_entries(), want.node_entries.size())
        << "seed " << seed;
    for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
      const auto got = index.reach_at(v);
      const std::size_t begin = want.node_start[v];
      ASSERT_EQ(got.size(), want.node_start[v + 1] - begin)
          << "seed " << seed << " node " << v;
      for (std::size_t i = 0; i < got.size(); ++i) {
        const NodeIncidence& expected = want.node_entries[begin + i];
        EXPECT_EQ(got[i].flow, expected.flow) << "seed " << seed;
        EXPECT_EQ(bits(got[i].detour), bits(expected.detour))
            << "seed " << seed << " node " << v << " flow " << got[i].flow;
      }
      EXPECT_EQ(bits(passing.vehicles[v]), bits(want.vehicles_at_node[v]))
          << "seed " << seed << " node " << v;
      EXPECT_EQ(passing.flows[v], want.node_start[v + 1] - begin);
      entries_checked += got.size();
    }
  }
  // The instances really exercised the repeated-node path.
  EXPECT_GT(repeated_visits, 100u);
  EXPECT_GT(entries_checked, 1000u);
}

}  // namespace
}  // namespace rap::traffic
