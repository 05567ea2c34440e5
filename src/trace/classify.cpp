#include "src/trace/classify.h"

#include <algorithm>

namespace rap::trace {

std::vector<LocationClass> classify_intersections(
    const traffic::PassingTraffic& passing) {
  const std::vector<double>& vehicles = passing.vehicles;

  // Rank only intersections with traffic; traffic-free ones are suburb.
  std::vector<graph::NodeId> ranked;
  for (graph::NodeId v = 0; v < vehicles.size(); ++v) {
    if (vehicles[v] > 0.0) ranked.push_back(v);
  }
  std::sort(ranked.begin(), ranked.end(), [&](graph::NodeId a, graph::NodeId b) {
    if (vehicles[a] != vehicles[b]) return vehicles[a] > vehicles[b];
    return a < b;
  });

  std::vector<LocationClass> classes(vehicles.size(), LocationClass::kSuburb);
  const auto center_cut = static_cast<std::size_t>(
      kCenterFraction * static_cast<double>(ranked.size()));
  const auto city_cut = static_cast<std::size_t>(
      (kCenterFraction + kCityFraction) * static_cast<double>(ranked.size()));
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (i < center_cut) {
      classes[ranked[i]] = LocationClass::kCityCenter;
    } else if (i < city_cut) {
      classes[ranked[i]] = LocationClass::kCity;
    }
  }
  return classes;
}

std::vector<graph::NodeId> nodes_in_class(
    const std::vector<LocationClass>& classes, LocationClass wanted) {
  std::vector<graph::NodeId> out;
  for (graph::NodeId v = 0; v < classes.size(); ++v) {
    if (classes[v] == wanted) out.push_back(v);
  }
  return out;
}

const char* to_string(LocationClass c) noexcept {
  switch (c) {
    case LocationClass::kCityCenter:
      return "city-center";
    case LocationClass::kCity:
      return "city";
    case LocationClass::kSuburb:
      return "suburb";
  }
  return "unknown";
}

}  // namespace rap::trace
