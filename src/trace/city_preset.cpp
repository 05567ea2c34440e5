#include "src/trace/city_preset.h"

#include <optional>
#include <stdexcept>
#include <string>

#include "src/citygen/grid_city.h"
#include "src/citygen/partial_grid_city.h"
#include "src/citygen/radial_city.h"
#include "src/trace/map_matcher.h"

namespace rap::trace {

ExtractionOptions CityPreset::extraction() const noexcept {
  ExtractionOptions options;
  options.passengers_per_vehicle = gen.passengers_per_vehicle;
  options.alpha = gen.alpha;
  return options;
}

CityPreset make_city(std::string_view name, std::size_t journeys,
                     util::Rng& rng) {
  CityPreset city;
  city.gen.num_journeys = journeys;
  city.gen.alpha = 0.001;
  if (name == "dublin") {
    citygen::RadialSpec radial;
    radial.rings = 12;
    radial.nodes_on_first_ring = 8;
    radial.nodes_per_ring_step = 5;
    radial.ring_spacing = 3'300.0;
    city.net = citygen::build_radial_city(radial, rng);
    city.gen.mean_runs_per_journey = 40.0;
    city.gen.sample_spacing = 900.0;
    city.gen.gps_noise = 150.0;
    city.gen.passengers_per_vehicle = 100.0;
    city.snap_radius = 450.0;
    return city;
  }
  if (name == "seattle") {
    citygen::PartialGridSpec grid;
    grid.grid = {21, 21, 500.0, {0.0, 0.0}};
    city.net = citygen::PartialGridCity(grid, rng).network();
  } else if (name == "grid") {
    city.net = citygen::GridCity({15, 15, 500.0, {0.0, 0.0}}).network();
  } else {
    throw std::invalid_argument("unknown city '" + std::string(name) +
                                "' (dublin|seattle|grid)");
  }
  city.gen.mean_runs_per_journey = 30.0;
  city.gen.sample_spacing = 350.0;
  city.gen.gps_noise = 60.0;
  city.gen.passengers_per_vehicle = 200.0;
  city.snap_radius = 230.0;
  return city;
}

std::vector<traffic::TrafficFlow> stream_flows(const CityPreset& city,
                                               util::Rng& rng) {
  const MapMatcher matcher(city.net, city.snap_radius);
  const ExtractionOptions options = city.extraction();
  std::vector<traffic::TrafficFlow> flows;
  for_each_journey(city.net, city.gen, rng,
                   [&](const traffic::TrafficFlow& /*planted*/,
                       std::span<const TraceRecord> records) {
                     if (auto flow = extract_journey(matcher, records, options)) {
                       flows.push_back(std::move(*flow));
                     }
                   });
  return flows;
}

}  // namespace rap::trace
