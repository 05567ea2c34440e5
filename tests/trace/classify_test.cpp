#include "src/trace/classify.h"

#include <gtest/gtest.h>

#include "tests/testing/builders.h"

namespace rap::trace {
namespace {

traffic::TrafficFlow line_flow(graph::NodeId from, graph::NodeId to,
                               double vehicles) {
  traffic::TrafficFlow flow;
  flow.origin = from;
  flow.destination = to;
  for (graph::NodeId v = from; v <= to; ++v) flow.path.push_back(v);
  flow.daily_vehicles = vehicles;
  return flow;
}

TEST(PassingVehicles, SumsFlowsPerNode) {
  const auto net = testing::line_network(5);
  const std::vector<traffic::TrafficFlow> flows{
      line_flow(0, 2, 10.0),
      line_flow(1, 4, 5.0),
  };
  const auto vehicles = traffic::passing_traffic(net, flows).vehicles;
  EXPECT_DOUBLE_EQ(vehicles[0], 10.0);
  EXPECT_DOUBLE_EQ(vehicles[1], 15.0);
  EXPECT_DOUBLE_EQ(vehicles[2], 15.0);
  EXPECT_DOUBLE_EQ(vehicles[3], 5.0);
  EXPECT_DOUBLE_EQ(vehicles[4], 5.0);
}

TEST(PassingVehicles, FlowCountedOncePerNodeEvenIfRevisited) {
  const auto net = testing::line_network(4);
  traffic::TrafficFlow flow;
  flow.origin = 0;
  flow.destination = 1;
  flow.path = {0, 1, 2, 1};
  flow.daily_vehicles = 7.0;
  const auto vehicles = traffic::passing_traffic(net, {flow}).vehicles;
  EXPECT_DOUBLE_EQ(vehicles[1], 7.0);
}

TEST(Classify, PartitionsByTraffic) {
  const auto net = testing::line_network(10);
  // Node 4..5 carry the most traffic (both flows), ends carry least.
  const std::vector<traffic::TrafficFlow> flows{
      line_flow(0, 5, 10.0),
      line_flow(4, 9, 10.0),
      line_flow(3, 6, 5.0),
  };
  const auto classes = classify_intersections(net, flows);
  ASSERT_EQ(classes.size(), 10u);
  // All 10 nodes carry traffic. Nodes 4, 5 have 25 vehicles each; the top
  // 10% (one node) is city-centre, and the tie goes to the lower id.
  EXPECT_EQ(classes[4], LocationClass::kCityCenter);
  // City band (next 40%, four nodes): node 5, nodes 3, 6 (15 vehicles),
  // then the lowest-id 10-vehicle node 0.
  EXPECT_EQ(classes[5], LocationClass::kCity);
  EXPECT_EQ(classes[3], LocationClass::kCity);
  EXPECT_EQ(classes[6], LocationClass::kCity);
  EXPECT_EQ(classes[0], LocationClass::kCity);
  // The remaining 10-vehicle nodes fall to suburb.
  EXPECT_EQ(classes[1], LocationClass::kSuburb);
  EXPECT_EQ(classes[2], LocationClass::kSuburb);
  EXPECT_EQ(classes[9], LocationClass::kSuburb);
}

TEST(Classify, TrafficFreeNodesAreSuburb) {
  const auto net = testing::line_network(6);
  const std::vector<traffic::TrafficFlow> flows{line_flow(0, 2, 5.0)};
  const auto classes = classify_intersections(net, flows);
  EXPECT_EQ(classes[4], LocationClass::kSuburb);
  EXPECT_EQ(classes[5], LocationClass::kSuburb);
}

TEST(Classify, NoFlowsMakesEverythingSuburb) {
  const auto net = testing::line_network(4);
  const auto classes = classify_intersections(net, {});
  for (const LocationClass c : classes) {
    EXPECT_EQ(c, LocationClass::kSuburb);
  }
}

TEST(Classify, AllThreeClassesPresentOnRichWorkload) {
  util::Rng rng(21);
  const auto net = testing::random_network(6, 6, 8, rng);
  const auto flows = testing::random_flows(net, 40, rng);
  const auto classes = classify_intersections(net, flows);
  EXPECT_FALSE(nodes_in_class(classes, LocationClass::kCityCenter).empty());
  EXPECT_FALSE(nodes_in_class(classes, LocationClass::kCity).empty());
  EXPECT_FALSE(nodes_in_class(classes, LocationClass::kSuburb).empty());
}

TEST(Classify, CenterHasMoreTrafficThanSuburb) {
  util::Rng rng(23);
  const auto net = testing::random_network(6, 6, 8, rng);
  const auto flows = testing::random_flows(net, 40, rng);
  const auto vehicles = traffic::passing_traffic(net, flows).vehicles;
  const auto classes = classify_intersections(net, flows);
  double min_center = 1e18;
  double max_suburb = 0.0;
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
    if (classes[v] == LocationClass::kCityCenter) {
      min_center = std::min(min_center, vehicles[v]);
    } else if (classes[v] == LocationClass::kSuburb) {
      max_suburb = std::max(max_suburb, vehicles[v]);
    }
  }
  EXPECT_GE(min_center, max_suburb);
}

TEST(NodesInClass, FiltersCorrectly) {
  const std::vector<LocationClass> classes{
      LocationClass::kCity, LocationClass::kSuburb, LocationClass::kCity};
  EXPECT_EQ(nodes_in_class(classes, LocationClass::kCity),
            (std::vector<graph::NodeId>{0, 2}));
  EXPECT_EQ(nodes_in_class(classes, LocationClass::kCityCenter),
            std::vector<graph::NodeId>{});
}

TEST(ToString, CoversAllClasses) {
  EXPECT_STREQ(to_string(LocationClass::kCityCenter), "city-center");
  EXPECT_STREQ(to_string(LocationClass::kCity), "city");
  EXPECT_STREQ(to_string(LocationClass::kSuburb), "suburb");
}

}  // namespace
}  // namespace rap::trace
