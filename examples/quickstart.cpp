// Quickstart: build a small road network by hand, describe its traffic
// flows, and place two RAPs for a shop — the paper's Fig. 4 scenario.
//
// Run: ./quickstart
#include <iostream>
#include <utility>

#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/greedy.h"
#include "src/core/problem.h"
#include "src/traffic/utility.h"

int main() {
  using namespace rap;

  // 1. The street map: intersections with coordinates, two-way streets.
  //    (This is the 6-intersection example of the paper's Fig. 4.)
  //    A builder collects them; build() freezes the finished network.
  graph::NetworkBuilder builder;
  const graph::NodeId v1 = builder.add_node({0.0, 0.0});  // the shop's corner
  const graph::NodeId v2 = builder.add_node({0.0, 1.0});
  const graph::NodeId v3 = builder.add_node({1.0, 1.0});
  const graph::NodeId v4 = builder.add_node({1.0, 0.0});
  const graph::NodeId v5 = builder.add_node({2.0, 1.0});
  const graph::NodeId v6 = builder.add_node({3.0, 1.0});
  for (const auto& [a, b] : {std::pair{v1, v2}, {v1, v4}, {v2, v3},
                             {v3, v4}, {v3, v5}, {v5, v6}}) {
    builder.add_two_way_edge(a, b, 1.0);
  }
  const graph::RoadNetwork net = std::move(builder).build();

  // 2. The daily traffic flows T(i,j): who drives where, and how many.
  std::vector<traffic::TrafficFlow> flows;
  flows.push_back(traffic::make_shortest_path_flow(net, v2, v5, /*vehicles=*/6));
  flows.push_back(traffic::make_shortest_path_flow(net, v3, v5, /*vehicles=*/3));
  flows.push_back(traffic::make_shortest_path_flow(net, v4, v3, /*vehicles=*/6));
  flows.push_back(traffic::make_shortest_path_flow(net, v5, v6, /*vehicles=*/2));

  // 3. The driver model: detour probability as a function of the detour
  //    distance. Drivers give up beyond D = 6; willingness decays linearly.
  const traffic::LinearUtility utility(/*range D=*/6.0);

  // 4. The placement problem: network + flows + shop + utility.
  const core::PlacementProblem problem(net, flows, /*shop=*/v1, utility);

  // 5. Place k = 2 RAPs with Algorithm 2 (the composite greedy with the
  //    1 - 1/sqrt(e) guarantee) and inspect the result.
  const core::PlacementResult result = core::composite_greedy_placement(problem, 2);
  std::cout << "Algorithm 2 placed RAPs at intersections:";
  for (const graph::NodeId v : result.nodes) std::cout << " V" << v + 1;
  std::cout << "\nExpected customers attracted per day: " << result.customers
            << "\n";

  // Any placement can be valued directly, too:
  const core::Placement alternative{v2, v4};
  std::cout << "Alternative placement {V2, V4} is worth: "
            << core::evaluate_placement(problem, alternative) << "\n";
  return 0;
}
