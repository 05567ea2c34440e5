// Manhattan-grid planning (Section IV): a shop in the middle of a D x D
// grid region, boundary-to-boundary traffic flows that choose among their
// many shortest paths — and will reroute through a RAP for the free
// advertisement. Compares the two-stage Algorithms 3/4 against the general
// algorithms running on the same route-aware model, and prints the flow
// classification (straight / turned / other) driving the two-stage design.
//
// Run: ./manhattan_planner [--seed N] [--n GRID] [--k N] [--flows N]
#include <array>
#include <iostream>

#include "src/core/baselines.h"
#include "src/core/composite_greedy.h"
#include "src/core/greedy.h"
#include "src/manhattan/flow_class.h"
#include "src/manhattan/grid_model.h"
#include "src/manhattan/two_stage.h"
#include "src/util/cli.h"
#include "src/util/strings.h"

int main(int argc, char** argv) {
  using namespace rap;
  const util::CliFlags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));
  const auto n = static_cast<std::size_t>(flags.get_int("n", 11));
  const auto k = static_cast<std::size_t>(flags.get_int("k", 8));
  const auto flow_count = static_cast<std::size_t>(flags.get_int("flows", 80));

  // An n x n grid with 500 ft blocks; the shop sits at the centre.
  const manhattan::GridScenario scenario(n, 500.0);
  std::cout << "grid: " << n << " x " << n << " intersections, region side "
            << scenario.side() << " ft, shop at the centre\n";

  manhattan::GridFlowGenSpec gen;
  gen.count = flow_count;
  gen.mean_vehicles = 25.0;
  gen.passengers_per_vehicle = 200.0;
  gen.alpha = 0.001;
  util::Rng rng(seed);
  const auto flows = manhattan::generate_grid_flows(scenario, gen, rng);

  std::array<std::size_t, 3> class_counts{};
  for (const manhattan::GridFlow& flow : flows) {
    ++class_counts[static_cast<std::size_t>(
        manhattan::classify_grid_flow(scenario, flow))];
  }
  std::cout << "flows: " << flows.size() << " total — "
            << class_counts[0] << " straight, " << class_counts[1]
            << " turned, " << class_counts[2] << " other\n\n";

  // Route-aware coverage model: a RAP reaches a flow anywhere inside the
  // flow's shortest-path rectangle.
  const traffic::LinearUtility utility(scenario.side());
  const manhattan::GridCoverageModel model(scenario, flows, utility);

  const auto report = [&](const char* name, const core::PlacementResult& r) {
    std::cout << util::pad(name, -26)
              << util::pad(util::format_fixed(r.customers, 2), 10) << "  RAPs:";
    for (const graph::NodeId v : r.nodes) {
      const citygen::GridCoord c = scenario.city().coord_of(v);
      std::cout << " (" << c.col << "," << c.row << ")";
    }
    std::cout << "\n";
  };

  std::cout << "expected customers/day with k=" << k << ", linear utility\n";
  report("Algorithm 3 (corners)",
         manhattan::two_stage_grid_placement(
             model, scenario, flows, k, manhattan::TwoStageVariant::kCorners));
  report("Algorithm 4 (midpoints)",
         manhattan::two_stage_grid_placement(
             model, scenario, flows, k,
             manhattan::TwoStageVariant::kMidpoints));
  report("Algorithm 2 (composite)",
         core::composite_greedy_placement(model, k));
  report("Algorithm 1 (coverage)", core::greedy_coverage_placement(model, k));
  report("MaxCustomers", core::max_customers_placement(model, k));
  util::Rng random_rng(seed + 1);
  report("Random", core::random_placement(model, k, random_rng));

  std::cout << "\nNote how Algorithm 4 pulls its four anchor RAPs halfway "
               "toward the shop:\nunder a decreasing utility the corner "
               "detours are worth half as much as\nmid-distance ones "
               "(Theorem 4's 1/2 - 2/k bound).\n";
  return 0;
}
