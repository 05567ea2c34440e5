#include "src/traffic/flow.h"

#include <gtest/gtest.h>

#include <limits>

#include "tests/testing/builders.h"
#include "tests/testing/shortest_paths.h"

namespace rap::traffic {
namespace {

TrafficFlow valid_flow(const graph::RoadNetwork& net) {
  (void)net;
  TrafficFlow flow;
  flow.origin = 0;
  flow.destination = 2;
  flow.path = {0, 1, 2};
  flow.daily_vehicles = 5.0;
  flow.passengers_per_vehicle = 100.0;
  flow.alpha = 0.001;
  return flow;
}

TEST(ValidateFlow, AcceptsWellFormed) {
  const auto net = testing::line_network(4);
  EXPECT_NO_THROW(validate_flow(net, valid_flow(net)));
}

TEST(ValidateFlow, RejectsEmptyPath) {
  const auto net = testing::line_network(4);
  auto flow = valid_flow(net);
  flow.path.clear();
  EXPECT_THROW(validate_flow(net, flow), std::invalid_argument);
}

TEST(ValidateFlow, RejectsEndpointMismatch) {
  const auto net = testing::line_network(4);
  auto flow = valid_flow(net);
  flow.origin = 1;
  EXPECT_THROW(validate_flow(net, flow), std::invalid_argument);
  flow = valid_flow(net);
  flow.destination = 3;
  EXPECT_THROW(validate_flow(net, flow), std::invalid_argument);
}

TEST(ValidateFlow, RejectsNonWalkPath) {
  const auto net = testing::line_network(4);
  auto flow = valid_flow(net);
  flow.path = {0, 2};
  flow.destination = 2;
  EXPECT_THROW(validate_flow(net, flow), std::invalid_argument);
}

TEST(ValidateFlow, RejectsBadVolumes) {
  const auto net = testing::line_network(4);
  auto flow = valid_flow(net);
  flow.daily_vehicles = -1.0;
  EXPECT_THROW(validate_flow(net, flow), std::invalid_argument);
  flow = valid_flow(net);
  flow.passengers_per_vehicle = 0.0;
  EXPECT_THROW(validate_flow(net, flow), std::invalid_argument);
}

TEST(ValidateFlow, RejectsOverflowingPopulation) {
  // Each volume is finite; their product is +inf.
  const auto net = testing::line_network(4);
  auto flow = valid_flow(net);
  flow.daily_vehicles = 1e300;
  flow.passengers_per_vehicle = 1e300;
  EXPECT_THROW(validate_flow(net, flow), std::invalid_argument);
}

TEST(ValidateFlow, RejectsBadAlpha) {
  const auto net = testing::line_network(4);
  auto flow = valid_flow(net);
  flow.alpha = 1.5;
  EXPECT_THROW(validate_flow(net, flow), std::invalid_argument);
  flow.alpha = -0.1;
  EXPECT_THROW(validate_flow(net, flow), std::invalid_argument);
  flow.alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_flow(net, flow), std::invalid_argument);
}

TEST(ValidateFlow, ZeroVehiclesIsLegal) {
  const auto net = testing::line_network(4);
  auto flow = valid_flow(net);
  flow.daily_vehicles = 0.0;
  EXPECT_NO_THROW(validate_flow(net, flow));
  EXPECT_DOUBLE_EQ(flow.population(), 0.0);
}

TEST(Population, MultipliesVehiclesAndPassengers) {
  TrafficFlow flow;
  flow.daily_vehicles = 7.0;
  flow.passengers_per_vehicle = 200.0;
  EXPECT_DOUBLE_EQ(flow.population(), 1400.0);
}

TEST(MakeShortestPathFlow, BuildsOptimalPath) {
  util::Rng rng(3);
  const auto net = testing::random_network(4, 4, 5, rng);
  const auto flow = make_shortest_path_flow(net, 0, 15, 10.0, 100.0, 0.5);
  EXPECT_EQ(flow.origin, 0u);
  EXPECT_EQ(flow.destination, 15u);
  EXPECT_TRUE(testing::is_shortest_path(net, flow.path));
  EXPECT_DOUBLE_EQ(flow.daily_vehicles, 10.0);
  EXPECT_DOUBLE_EQ(flow.alpha, 0.5);
}

TEST(MakeShortestPathFlow, ThrowsWhenUnreachable) {
  graph::NetworkBuilder builder;
  builder.add_node({0.0, 0.0});
  builder.add_node({1.0, 0.0});
  const graph::RoadNetwork net = std::move(builder).build();
  EXPECT_THROW(make_shortest_path_flow(net, 0, 1, 1.0), std::invalid_argument);
}

TEST(TotalPopulation, SumsFlows) {
  const auto net = testing::line_network(4);
  std::vector<TrafficFlow> flows{valid_flow(net), valid_flow(net)};
  flows[1].daily_vehicles = 3.0;
  EXPECT_DOUBLE_EQ(total_population(flows), 500.0 + 300.0);
  EXPECT_DOUBLE_EQ(total_population({}), 0.0);
}

}  // namespace
}  // namespace rap::traffic
