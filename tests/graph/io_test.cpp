#include "src/graph/io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string_view>

#include "src/citygen/grid_city.h"
#include "src/citygen/partial_grid_city.h"
#include "src/citygen/radial_city.h"
#include "tests/testing/builders.h"
#include "tests/testing/parse_verdict.h"

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
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  builder.add_edge(a, b, 2.5);  // one-way only
  const RoadNetwork net = std::move(builder).build();
  const RoadNetwork parsed = network_from_csv(network_to_csv(net));
  EXPECT_EQ(parsed.out_edges(a).size(), 1u);
  EXPECT_EQ(parsed.out_edges(b).size(), 0u);
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

TEST(NetworkCsv, GoldenBytes) {
  // Negative coordinates, -0.0, 1e20 and exact binary ties (0.0078125 has
  // seven decimals; it rounds to even at six).
  NetworkBuilder builder;
  builder.add_node({-1.5, 2.25});
  builder.add_node({-0.0, 1e20});
  builder.add_node({0.0078125, -0.0234375});
  builder.add_node({1234567.890123456, -98765.4321});
  builder.add_edge(0, 1, 0.125);
  builder.add_edge(1, 0, 2.5);
  builder.add_edge(1, 2, 1e20);
  builder.add_edge(2, 3, 0.0234375);
  builder.add_edge(3, 0, 141.4213562373095);
  const RoadNetwork net = std::move(builder).build();
  EXPECT_EQ(network_to_csv(net),
            "node,-1.500000,2.250000\n"
            "node,-0.000000,100000000000000000000.000000\n"
            "node,0.007812,-0.023438\n"
            "node,1234567.890123,-98765.432100\n"
            "edge,0,1,0.125000\n"
            "edge,1,0,2.500000\n"
            "edge,1,2,100000000000000000000.000000\n"
            "edge,2,3,0.023438\n"
            "edge,3,0,141.421356\n");
}

TEST(NetworkCsv, ValuesTooLongToFormatThrow) {
  NetworkBuilder builder;
  builder.add_node({1e300, 0.0});
  const RoadNetwork net = std::move(builder).build();
  EXPECT_THROW((void)network_to_csv(net), std::runtime_error);
}

TEST(NetworkCsv, NumericFieldVerdicts) {
  // What the parser accepts in a number field, and the exact error text
  // of what it rejects: one source:line prefix, whether the number fails
  // to parse or the builder rejects the parsed coordinate or length.
  const struct {
    std::string_view text;
    std::string_view node_x;
    std::string_view edge_length;
  } cases[] = {
      {" 1.5",
       "ok 0x1.8p+0",
       "ok 0x1.8p+0"},
      {"+1.5",
       "ok 0x1.8p+0",
       "ok 0x1.8p+0"},
      {"0x1p3",
       "ok 0x1p+3",
       "ok 0x1p+3"},
      {"1e400",
       "error: <string>:1: not a number: '1e400'",
       "error: <string>:3: not a number: '1e400'"},
      {"1e-400",
       "error: <string>:1: not a number: '1e-400'",
       "error: <string>:3: not a number: '1e-400'"},
      {"nan",
       "error: <string>:1: RoadNetwork::add_node: coordinates must be finite",
       "error: <string>:3: RoadNetwork::add_edge: length must be finite and > 0"},
      {"inf",
       "error: <string>:1: RoadNetwork::add_node: coordinates must be finite",
       "error: <string>:3: RoadNetwork::add_edge: length must be finite and > 0"},
      {"",
       "error: <string>:1: not a number: ''",
       "error: <string>:3: not a number: ''"},
      {"1.5x",
       "error: <string>:1: not a number: '1.5x'",
       "error: <string>:3: not a number: '1.5x'"},
      {"-0",
       "ok -0x0p+0",
       "error: <string>:3: RoadNetwork::add_edge: length must be finite and > 0"},
      {"4294967296",
       "ok 0x1p+32",
       "ok 0x1p+32"},
      {"1e-310",
       "error: <string>:1: not a number: '1e-310'",
       "error: <string>:3: not a number: '1e-310'"},
      {"-nan",
       "error: <string>:1: RoadNetwork::add_node: coordinates must be finite",
       "error: <string>:3: RoadNetwork::add_edge: length must be finite and > 0"},
      {"Infinity",
       "error: <string>:1: RoadNetwork::add_node: coordinates must be finite",
       "error: <string>:3: RoadNetwork::add_edge: length must be finite and > 0"},
      {"1.5 ",
       "error: <string>:1: not a number: '1.5 '",
       "error: <string>:3: not a number: '1.5 '"},
      {".5",
       "ok 0x1p-1",
       "ok 0x1p-1"},
      {"5.",
       "ok 0x1.4p+2",
       "ok 0x1.4p+2"},
      {"-.5e1",
       "ok -0x1.4p+2",
       "error: <string>:3: RoadNetwork::add_edge: length must be finite and > 0"},
      {"1E5",
       "ok 0x1.86ap+16",
       "ok 0x1.86ap+16"},
      {"007",
       "ok 0x1.cp+2",
       "ok 0x1.cp+2"},
      {"-",
       "error: <string>:1: not a number: '-'",
       "error: <string>:3: not a number: '-'"},
      {"e5",
       "error: <string>:1: not a number: 'e5'",
       "error: <string>:3: not a number: 'e5'"},
      {"-1",
       "ok -0x1p+0",
       "error: <string>:3: RoadNetwork::add_edge: length must be finite and > 0"},
      {"0x10",
       "ok 0x1p+4",
       "ok 0x1p+4"},
      {"\t2",
       "ok 0x1p+1",
       "ok 0x1p+1"},
      {"2.5e",
       "error: <string>:1: not a number: '2.5e'",
       "error: <string>:3: not a number: '2.5e'"},
      {"nan(1)",
       "error: <string>:1: RoadNetwork::add_node: coordinates must be finite",
       "error: <string>:3: RoadNetwork::add_edge: length must be finite and > 0"},
  };
  for (const auto& c : cases) {
    const std::string text(c.text);
    EXPECT_EQ(testing::parse_verdict([&] {
                return network_from_csv("node," + text + ",0\n").position(0).x;
              }),
              c.node_x)
        << "node x '" << text << "'";
    EXPECT_EQ(testing::parse_verdict([&] {
                return network_from_csv("node,0,0\nnode,1,0\nedge,0,1," +
                                        text + "\n")
                    .edge(0)
                    .length;
              }),
              c.edge_length)
        << "edge length '" << text << "'";
  }
}

/// The Seattle and Dublin presets of rap_cli and the scenario cache, plus a
/// Seattle with jittered (non-integer) intersections.
std::vector<RoadNetwork> preset_networks() {
  std::vector<RoadNetwork> nets;
  for (const double jitter : {0.0, 7.3}) {
    util::Rng rng(11);
    citygen::PartialGridSpec seattle;
    seattle.grid = {21, 21, 500.0, {0.0, 0.0}};
    seattle.position_jitter = jitter;
    nets.push_back(citygen::PartialGridCity(seattle, rng).network());
  }
  util::Rng rng(11);
  citygen::RadialSpec dublin;
  dublin.rings = 12;
  dublin.nodes_on_first_ring = 8;
  dublin.nodes_per_ring_step = 5;
  dublin.ring_spacing = 3'300.0;
  nets.push_back(citygen::build_radial_city(dublin, rng));
  return nets;
}

TEST(NetworkCsv, PresetRoundTripIsWithinTheQuantumAndStable) {
  // Six decimals quantise coordinates and lengths to 1e-6, so a value
  // moves by at most half of that; the written text is a fixed point.
  for (const RoadNetwork& net : preset_networks()) {
    const std::string text = network_to_csv(net);
    const RoadNetwork parsed = network_from_csv(text);
    ASSERT_EQ(parsed.num_nodes(), net.num_nodes());
    ASSERT_EQ(parsed.num_edges(), net.num_edges());
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      EXPECT_NEAR(parsed.position(v).x, net.position(v).x, 5e-7);
      EXPECT_NEAR(parsed.position(v).y, net.position(v).y, 5e-7);
    }
    for (EdgeId e = 0; e < net.num_edges(); ++e) {
      EXPECT_EQ(parsed.edge(e).from, net.edge(e).from);
      EXPECT_EQ(parsed.edge(e).to, net.edge(e).to);
      EXPECT_NEAR(parsed.edge(e).length, net.edge(e).length, 5e-7);
    }
    EXPECT_EQ(network_to_csv(parsed), text);
  }
}

TEST(NetworkCsv, WriteErrorAtCloseThrows) {
  // A small network fits the stream's buffer, so /dev/full only refuses
  // it when the file is flushed and closed.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const citygen::GridCity grid({3, 3, 100.0});
  try {
    write_network_csv("/dev/full", grid.network());
    ADD_FAILURE() << "expected a write error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("/dev/full"), std::string::npos)
        << error.what();
  }
}

TEST(NetworkCsv, MissingFileThrows) {
  EXPECT_THROW(read_network_csv("/nonexistent/rap/net.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace rap::graph
