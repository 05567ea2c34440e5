// Dublin-style campaign planning, end to end:
//   synthesize an irregular (non-grid) city and a day of bus GPS traces ->
//   map-match the traces -> extract traffic flows -> classify intersections
//   -> pick a shop in the "city" band -> compare RAP placements.
//
// This is the full pipeline behind the Fig. 10/11 benches, driven as a
// library user would: one city, one shop, human-readable output.
//
// Run: ./dublin_campaign [--seed N] [--k N] [--d FEET]
#include <iostream>

#include "src/citygen/radial_city.h"
#include "src/core/baselines.h"
#include "src/core/composite_greedy.h"
#include "src/core/greedy.h"
#include "src/trace/classify.h"
#include "src/trace/flow_extractor.h"
#include "src/trace/generator.h"
#include "src/util/cli.h"
#include "src/util/strings.h"

int main(int argc, char** argv) {
  using namespace rap;
  const util::CliFlags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto k = static_cast<std::size_t>(flags.get_int("k", 8));
  const double d = flags.get_double("d", 20'000.0);

  // A Dublin-like central area: radial/ring streets, ~80,000 ft across.
  util::Rng rng(seed);
  citygen::RadialSpec city_spec;
  city_spec.rings = 12;
  city_spec.nodes_on_first_ring = 8;
  city_spec.nodes_per_ring_step = 5;
  city_spec.ring_spacing = 3'300.0;
  const graph::RoadNetwork net = citygen::build_radial_city(city_spec, rng);
  std::cout << "city: " << net.num_nodes() << " intersections, "
            << net.num_edges() << " directed streets\n";

  // One day of bus traces (journey-pattern ids, 100 passengers per bus).
  trace::TraceGenSpec trace_spec;
  trace_spec.num_journeys = 100;
  trace_spec.mean_runs_per_journey = 40.0;
  trace_spec.sample_spacing = 900.0;
  trace_spec.gps_noise = 150.0;
  trace_spec.passengers_per_vehicle = 100.0;
  trace_spec.alpha = 0.001;
  const trace::SyntheticTrace day = trace::generate_trace(net, trace_spec, rng);
  std::cout << "trace: " << day.records.size() << " GPS records across "
            << day.planted_flows.size() << " journey patterns\n";

  // Map-match and extract the flows the advertiser can target.
  const trace::MapMatcher matcher(net, /*snap_radius=*/1'500.0);
  trace::ExtractionOptions extract;
  extract.passengers_per_vehicle = 100.0;
  extract.alpha = 0.001;
  const auto flows = trace::extract_flows(matcher, day.records, extract);
  std::cout << "extracted " << flows.size() << " traffic flows ("
            << traffic::total_population(flows) << " potential customers)\n";

  // Pick a shop location in the "city" band (not the congested centre).
  // One walk of the paths ranks the intersections for the shop pick and
  // for the two traffic baselines below.
  const traffic::PassingTraffic passing = traffic::passing_traffic(net, flows);
  const auto classes = trace::classify_intersections(passing);
  const auto city_nodes =
      trace::nodes_in_class(classes, trace::LocationClass::kCity);
  const graph::NodeId shop = city_nodes[rng.next_below(city_nodes.size())];
  std::cout << "shop at intersection " << shop << " ("
            << net.position(shop).x << ", " << net.position(shop).y << ") ft\n\n";

  // Compare placements under the linear utility with threshold D.
  const traffic::LinearUtility utility(d);
  const core::PlacementProblem problem(net, flows, shop, utility);

  const auto report = [&](const char* name, const core::PlacementResult& r) {
    std::cout << util::pad(name, -18) << util::pad(util::format_fixed(r.customers, 1), 10)
              << "  RAPs at:";
    for (const graph::NodeId v : r.nodes) std::cout << " " << v;
    std::cout << "\n";
  };
  std::cout << "expected customers/day with k=" << k << ", D=" << d << " ft\n";
  report("Algorithm 2", core::composite_greedy_placement(problem, k));
  report("Algorithm 1", core::greedy_coverage_placement(problem, k));
  report("MaxCustomers", core::max_customers_placement(problem, k));
  report("MaxVehicles", core::max_vehicles_placement(problem, passing, k));
  report("MaxCardinality",
         core::max_cardinality_placement(problem, passing, k));
  util::Rng random_rng(seed + 1);
  report("Random", core::random_placement(problem, k, random_rng));
  return 0;
}
