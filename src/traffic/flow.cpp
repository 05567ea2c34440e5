#include "src/traffic/flow.h"

#include <cmath>
#include <stdexcept>

#include "src/graph/dijkstra.h"
#include "src/graph/path.h"

namespace rap::traffic {

void validate_flow(const graph::RoadNetwork& net, const TrafficFlow& flow) {
  check_flow_ends(flow);
  if (!graph::is_walk(net, flow.path)) throw std::invalid_argument(kNotAWalk);
  check_flow_weights(flow);
}

void check_flow_ends(const TrafficFlow& flow) {
  if (flow.path.empty()) {
    throw std::invalid_argument("validate_flow: empty path");
  }
  if (flow.path.front() != flow.origin ||
      flow.path.back() != flow.destination) {
    throw std::invalid_argument(
        "validate_flow: path endpoints disagree with origin/destination");
  }
}

void check_flow_weights(const TrafficFlow& flow) {
  if (!(flow.daily_vehicles >= 0.0) || !std::isfinite(flow.daily_vehicles)) {
    throw std::invalid_argument("validate_flow: daily_vehicles must be finite and >= 0");
  }
  if (!(flow.passengers_per_vehicle > 0.0) ||
      !std::isfinite(flow.passengers_per_vehicle)) {
    throw std::invalid_argument(
        "validate_flow: passengers_per_vehicle must be finite and > 0");
  }
  if (!std::isfinite(flow.population())) {
    throw std::invalid_argument("validate_flow: population overflows");
  }
  if (!(flow.alpha >= 0.0 && flow.alpha <= 1.0)) {  // NaN fails too
    throw std::invalid_argument("validate_flow: alpha must be in [0, 1]");
  }
}

TrafficFlow make_shortest_path_flow(const graph::RoadNetwork& net,
                                    graph::NodeId origin,
                                    graph::NodeId destination,
                                    double daily_vehicles,
                                    double passengers_per_vehicle,
                                    double alpha) {
  auto path = graph::shortest_path(net, origin, destination);
  if (!path) {
    throw std::invalid_argument(
        "make_shortest_path_flow: destination unreachable");
  }
  TrafficFlow flow;
  flow.origin = origin;
  flow.destination = destination;
  flow.path = std::move(*path);
  flow.daily_vehicles = daily_vehicles;
  flow.passengers_per_vehicle = passengers_per_vehicle;
  flow.alpha = alpha;
  validate_flow(net, flow);
  return flow;
}

double total_population(const std::vector<TrafficFlow>& flows) noexcept {
  double total = 0.0;
  for (const TrafficFlow& flow : flows) total += flow.population();
  return total;
}

PassingTraffic passing_traffic(const graph::RoadNetwork& net,
                               const std::vector<TrafficFlow>& flows) {
  PassingTraffic out{std::vector<std::uint32_t>(net.num_nodes(), 0),
                     std::vector<double>(net.num_nodes(), 0.0)};
  std::vector<std::uint32_t> seen(net.num_nodes(), ~std::uint32_t{0});
  for (std::uint32_t f = 0; f < flows.size(); ++f) {
    validate_flow(net, flows[f]);
    for (const graph::NodeId v : flows[f].path) {
      if (seen[v] == f) continue;  // count a flow once per intersection
      seen[v] = f;
      ++out.flows[v];
      out.vehicles[v] += flows[f].daily_vehicles;
    }
  }
  return out;
}

}  // namespace rap::traffic
