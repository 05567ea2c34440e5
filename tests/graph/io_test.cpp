#include "src/graph/io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/citygen/radial_city.h"
#include "tests/testing/builders.h"

namespace rap::graph {
namespace {

void expect_same_network(const RoadNetwork& a, const RoadNetwork& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_NEAR(a.position(v).x, b.position(v).x, 1e-6);
    EXPECT_NEAR(a.position(v).y, b.position(v).y, 1e-6);
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).from, b.edge(e).from);
    EXPECT_EQ(a.edge(e).to, b.edge(e).to);
    EXPECT_NEAR(a.edge(e).length, b.edge(e).length, 1e-6);
  }
}

TEST(NetworkCsv, RoundTripLine) {
  const RoadNetwork net = testing::line_network(5);
  expect_same_network(net, network_from_csv(network_to_csv(net)));
}

TEST(NetworkCsv, RoundTripGeneratedCity) {
  util::Rng rng(3);
  citygen::RadialSpec spec;
  spec.rings = 4;
  spec.ring_spacing = 100.0;
  const RoadNetwork net = citygen::build_radial_city(spec, rng);
  expect_same_network(net, network_from_csv(network_to_csv(net)));
}

TEST(NetworkCsv, PreservesOneWayStreets) {
  RoadNetwork net;
  const NodeId a = net.add_node({0.0, 0.0});
  const NodeId b = net.add_node({1.0, 0.0});
  net.add_edge(a, b, 2.5);  // one-way only
  const RoadNetwork parsed = network_from_csv(network_to_csv(net));
  EXPECT_EQ(parsed.out_degree(a), 1u);
  EXPECT_EQ(parsed.out_degree(b), 0u);
}

TEST(NetworkCsv, EmptyNetwork) {
  const RoadNetwork net;
  const RoadNetwork parsed = network_from_csv(network_to_csv(net));
  EXPECT_EQ(parsed.num_nodes(), 0u);
  EXPECT_EQ(parsed.num_edges(), 0u);
}

TEST(NetworkCsv, RejectsMalformedInput) {
  EXPECT_THROW(network_from_csv("blob,1,2\n"), std::invalid_argument);
  EXPECT_THROW(network_from_csv("node,1\n"), std::invalid_argument);
  EXPECT_THROW(network_from_csv("node,1,x\n"), std::invalid_argument);
  EXPECT_THROW(network_from_csv("edge,0,1,1.0\n"), std::invalid_argument);
  EXPECT_THROW(network_from_csv("node,0,0\nnode,1,0\nedge,0,1\n"),
               std::invalid_argument);
  // Edge validation (self-loop) flows through RoadNetwork.
  EXPECT_THROW(network_from_csv("node,0,0\nedge,0,0,1.0\n"),
               std::invalid_argument);
}

TEST(NetworkCsv, ErrorsNameSourceAndLine) {
  // Garbage row type on line 3 of a named source.
  try {
    network_from_csv("node,0,0\nnode,1,0\nblob,9\n", "net.csv");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("net.csv:3"), std::string::npos)
        << error.what();
  }
  // Truncated edge row on line 2.
  try {
    network_from_csv("node,0,0\nedge,0\n", "net.csv");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("net.csv:2"), std::string::npos)
        << error.what();
  }
}

TEST(NetworkCsv, FileRoundTrip) {
  const RoadNetwork net = testing::line_network(4);
  const auto dir = std::filesystem::temp_directory_path() / "rap_net_io";
  std::filesystem::remove_all(dir);
  const auto path = dir / "net.csv";
  write_network_csv(path, net);
  expect_same_network(net, read_network_csv(path));
  std::filesystem::remove_all(dir);
}

TEST(NetworkCsv, StreamedFileErrorsNamePathAndLine) {
  const auto dir = std::filesystem::temp_directory_path() / "rap_net_io_bad";
  std::filesystem::create_directories(dir);
  const auto path = dir / "net.csv";
  {
    std::ofstream out(path);
    out << "node,0,0\nnode,1,0\nblob,9\n";
  }
  try {
    (void)read_network_csv(path);
    ADD_FAILURE() << "expected parse error";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(path.string() + ":3"),
              std::string::npos)
        << error.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(NetworkCsv, MissingFileThrows) {
  EXPECT_THROW(read_network_csv("/nonexistent/rap/net.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace rap::graph
