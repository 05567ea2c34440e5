// Shared test fixtures: small hand-built networks (including the paper's
// Fig. 4 worked example) and random-instance generators for property tests.
#pragma once

#include <utility>
#include <vector>

#include "src/graph/road_network.h"
#include "src/traffic/flow.h"
#include "src/util/rng.h"

namespace rap::testing {

/// Path graph 0 - 1 - ... - (n-1), unit two-way edges, on the x axis.
[[nodiscard]] inline graph::RoadNetwork line_network(std::size_t n) {
  graph::NetworkBuilder net;
  for (std::size_t i = 0; i < n; ++i) {
    net.add_node({static_cast<double>(i), 0.0});
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    net.add_two_way_edge(static_cast<graph::NodeId>(i),
                         static_cast<graph::NodeId>(i + 1), 1.0);
  }
  return std::move(net).build();
}

/// The Fig. 4 example network: six intersections V1..V6 (ids 0..5), unit
/// streets V1-V2, V1-V4, V2-V3, V3-V4, V3-V5, V5-V6; the shop is at V1.
struct Fig4 {
  // Node ids named after the paper's labels.
  static constexpr graph::NodeId V1 = 0;
  static constexpr graph::NodeId V2 = 1;
  static constexpr graph::NodeId V3 = 2;
  static constexpr graph::NodeId V4 = 3;
  static constexpr graph::NodeId V5 = 4;
  static constexpr graph::NodeId V6 = 5;

  graph::RoadNetwork net;
  std::vector<traffic::TrafficFlow> flows;

  Fig4() {
    // Coordinates chosen so neighbouring intersections are 1 apart; only
    // the graph distances matter to the algorithms.
    graph::NetworkBuilder builder;
    builder.add_node({0.0, 0.0});   // V1 (shop)
    builder.add_node({0.0, 1.0});   // V2
    builder.add_node({1.0, 1.0});   // V3
    builder.add_node({1.0, 0.0});   // V4
    builder.add_node({2.0, 1.0});   // V5
    builder.add_node({3.0, 1.0});   // V6
    builder.add_two_way_edge(V1, V2, 1.0);
    builder.add_two_way_edge(V1, V4, 1.0);
    builder.add_two_way_edge(V2, V3, 1.0);
    builder.add_two_way_edge(V3, V4, 1.0);
    builder.add_two_way_edge(V3, V5, 1.0);
    builder.add_two_way_edge(V5, V6, 1.0);
    net = std::move(builder).build();
    flows.push_back(make_flow(V2, {V2, V3, V5}, 6.0));  // T(2,5)
    flows.push_back(make_flow(V3, {V3, V5}, 3.0));      // T(3,5)
    flows.push_back(make_flow(V4, {V4, V3}, 6.0));      // T(4,3)
    flows.push_back(make_flow(V5, {V5, V6}, 2.0));      // T(5,6)
  }

  static constexpr graph::NodeId shop = V1;
  static constexpr double threshold = 6.0;  // the example's D

 private:
  static traffic::TrafficFlow make_flow(graph::NodeId origin,
                                        std::vector<graph::NodeId> path,
                                        double vehicles) {
    traffic::TrafficFlow flow;
    flow.origin = origin;
    flow.destination = path.back();
    flow.path = std::move(path);
    flow.daily_vehicles = vehicles;
    flow.passengers_per_vehicle = 1.0;
    flow.alpha = 1.0;
    return flow;
  }
};

/// Random strongly connected network: a c x r unit grid plus `extra`
/// random two-way chords — small enough for exhaustive oracles, irregular
/// enough to exercise the algorithms.
[[nodiscard]] inline graph::RoadNetwork random_network(std::size_t cols,
                                                       std::size_t rows,
                                                       std::size_t extra,
                                                       util::Rng& rng) {
  graph::NetworkBuilder net;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      net.add_node({static_cast<double>(c), static_cast<double>(r)});
    }
  }
  const auto at = [&](std::size_t c, std::size_t r) {
    return static_cast<graph::NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) net.add_two_way_edge(at(c, r), at(c + 1, r), 1.0);
      if (r + 1 < rows) net.add_two_way_edge(at(c, r), at(c, r + 1), 1.0);
    }
  }
  for (std::size_t i = 0; i < extra; ++i) {
    const auto a = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
    const auto b = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
    if (a == b) continue;
    const double len = std::max(
        0.5, euclidean_distance(net.position(a), net.position(b)) * 0.9);
    net.add_two_way_edge(a, b, len);
  }
  return std::move(net).build();
}

/// `count` random shortest-path flows with Poisson-ish volumes.
[[nodiscard]] inline std::vector<traffic::TrafficFlow> random_flows(
    const graph::RoadNetwork& net, std::size_t count, util::Rng& rng,
    double alpha = 1.0) {
  std::vector<traffic::TrafficFlow> flows;
  while (flows.size() < count) {
    const auto i = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
    const auto j = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
    if (i == j) continue;
    flows.push_back(traffic::make_shortest_path_flow(
        net, i, j, static_cast<double>(1 + rng.next_below(20)), 1.0, alpha));
  }
  return flows;
}

}  // namespace rap::testing
