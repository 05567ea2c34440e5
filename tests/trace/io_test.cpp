#include "src/trace/io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

#include "tests/testing/builders.h"
#include "tests/testing/parse_verdict.h"

namespace rap::trace {
namespace {

TEST(FlowsCsv, RoundTripPreservesEverything) {
  const auto net = testing::line_network(6);
  std::vector<traffic::TrafficFlow> flows;
  flows.push_back(traffic::make_shortest_path_flow(net, 0, 4, 12.0, 100.0, 0.001));
  flows.push_back(traffic::make_shortest_path_flow(net, 5, 2, 3.0, 200.0, 0.01));
  const auto parsed = flows_from_csv(net, flows_to_csv(flows));
  ASSERT_EQ(parsed.size(), 2u);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(parsed[i].origin, flows[i].origin);
    EXPECT_EQ(parsed[i].destination, flows[i].destination);
    EXPECT_EQ(parsed[i].path, flows[i].path);
    EXPECT_NEAR(parsed[i].daily_vehicles, flows[i].daily_vehicles, 1e-6);
    EXPECT_NEAR(parsed[i].passengers_per_vehicle,
                flows[i].passengers_per_vehicle, 1e-6);
    EXPECT_NEAR(parsed[i].alpha, flows[i].alpha, 1e-9);
  }
}

TEST(FlowsCsv, ValidatesAgainstNetwork) {
  const auto net = testing::line_network(3);
  const std::string header =
      "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n";
  // Path skips a node: not a walk on this network.
  EXPECT_THROW(flows_from_csv(net, header + "0,2,1,1,0.5,0|2\n"),
               std::invalid_argument);
  // Bad node id.
  EXPECT_THROW(flows_from_csv(net, header + "0,9,1,1,0.5,0|9\n"),
               std::invalid_argument);
}

// The path decoder accepts exactly what std::from_chars<uint32_t> accepted
// per '|'-separated id, and names the first bad id in the same message.
TEST(FlowsCsv, PathIdsDecodeAsFromChars) {
  const graph::RoadNetwork net = testing::line_network(8);
  const std::string header =
      "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n";
  const auto path_of = [&](const std::string& row) {
    return flows_from_csv(net, header + row).at(0).path;
  };
  EXPECT_EQ(path_of("0,0,1,1,0.5,0\n"), (std::vector<graph::NodeId>{0}));
  EXPECT_EQ(path_of("7,7,1,1,0.5,007\n"), (std::vector<graph::NodeId>{7}));
  EXPECT_EQ(path_of("1,3,1,1,0.5,00000000001|2|0003\n"),
            (std::vector<graph::NodeId>{1, 2, 3}));
  // 2^32 - 1 decodes; the walk check, not the decoder, rejects it.
  try {
    (void)flows_from_csv(net, header + "4294967295,4294967295,1,1,0.5,"
                                       "4294967295\n");
    FAIL() << "expected a validation error";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(
        error.what(),
        "<string>:2: validate_flow: path is not a walk on the network");
  }
  const std::pair<std::string, std::string> rejected[] = {
      {"4294967296", "4294967296"},
      {"1||2", ""},
      {"|1", ""},
      {"1|", ""},
      {"", ""},
      {"+1", "+1"},
      {"-1", "-1"},
      {" 1", " 1"},
      {"1a", "1a"},
      {"1|2a|3", "2a"},
      {"1|99999999999|x", "99999999999"},
  };
  for (const auto& [path, token] : rejected) {
    try {
      (void)flows_from_csv(net, header + "1,2,1,1,0.5," + path + "\n");
      FAIL() << "accepted path '" << path << "'";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                "<string>:2: not an unsigned integer: '" + token + "'")
          << "path '" << path << "'";
    }
  }
}

TEST(FlowsCsv, ErrorsNameSourceAndLine) {
  const graph::RoadNetwork net = testing::line_network(3);
  const std::string header =
      "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n";
  // Truncated row (too few fields) on line 3.
  try {
    flows_from_csv(net, header + "0,2,1,1,0.5,0|1|2\n0,2,1\n", "flows.csv");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("flows.csv:3"), std::string::npos)
        << error.what();
  }
  // Garbage number on line 2.
  try {
    flows_from_csv(net, header + "0,2,x,1,0.5,0|1|2\n", "flows.csv");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("flows.csv:2"), std::string::npos)
        << error.what();
  }
}

TEST(FlowsCsv, NanAlphaIsRejectedAtItsLine) {
  const graph::RoadNetwork net = testing::line_network(3);
  try {
    (void)flows_from_csv(
        net,
        "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n"
        "0,2,1,1,nan,0|1|2\n");
    FAIL() << "expected a validation error";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "<string>:2: validate_flow: alpha must be in [0, 1]");
  }
}

TEST(FlowsCsv, FileRoundTrip) {
  const auto net = testing::line_network(5);
  std::vector<traffic::TrafficFlow> flows;
  flows.push_back(traffic::make_shortest_path_flow(net, 0, 4, 7.0));
  const auto dir = std::filesystem::temp_directory_path() / "rap_flow_io";
  std::filesystem::remove_all(dir);
  const auto path = dir / "flows.csv";
  write_flows_csv(path, flows);
  const auto parsed = read_flows_csv(net, path);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].path, flows[0].path);
  std::filesystem::remove_all(dir);
}

TEST(FlowsCsv, StreamedFileErrorsNamePathAndLine) {
  // A bad row well past the first 64 KiB read chunk still names its line.
  const auto net = testing::line_network(3);
  std::string text =
      "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n";
  for (int row = 0; row < 5'000; ++row) text += "0,2,1,1,0.5,0|1|2\n";
  text += "0,2,1,1,0.5,0|2\n";  // not a walk: line 5,002
  ASSERT_GT(text.size(), 64u * 1024);
  const auto dir = std::filesystem::temp_directory_path() / "rap_flow_io_bad";
  std::filesystem::create_directories(dir);
  const auto path = dir / "flows.csv";
  {
    std::ofstream out(path);
    out << text;
  }
  try {
    (void)read_flows_csv(net, path);
    ADD_FAILURE() << "expected parse error";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(path.string() + ":5002"),
              std::string::npos)
        << error.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(FlowsCsv, GoldenBytes) {
  // Six decimals for volumes, nine for alpha; ties at both round to even.
  std::vector<traffic::TrafficFlow> flows(4);
  flows[0] = {0, 12, {0, 7, 4294967295u, 12}, 0.0078125, 100.0, 0.0009765625};
  flows[1] = {3, 3, {3}, -0.0, 2.5, 0.0029296875};
  flows[2] = {1, 2, {}, 1e20, 0.0234375, 1.0};
  flows[3] = {5, 9, {5, 6, 7, 8, 9}, 12.3456789, 0.1, 1e-10};
  EXPECT_EQ(flows_to_csv(flows),
            "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,"
            "path\n"
            "0,12,0.007812,100.000000,0.000976562,0|7|4294967295|12\n"
            "3,3,-0.000000,2.500000,0.002929688,3\n"
            "1,2,100000000000000000000.000000,0.023438,1.000000000,\n"
            "5,9,12.345679,0.100000,0.000000000,5|6|7|8|9\n");
}

TEST(TraceCsv, NumericFieldVerdicts) {
  // What the flow parser accepts in a number field, and the exact error text
  // of what it rejects.
  const struct {
    std::string_view text;
    std::string_view daily_vehicles;
    std::string_view path_id;
  } cases[] = {
      {" 1.5",
       "ok 0x1.8p+0",
       "error: <string>:2: not an unsigned integer: ' 1.5'"},
      {"+1.5",
       "ok 0x1.8p+0",
       "error: <string>:2: not an unsigned integer: '+1.5'"},
      {"0x1p3",
       "ok 0x1p+3",
       "error: <string>:2: not an unsigned integer: '0x1p3'"},
      {"1e400",
       "error: <string>:2: not a number: '1e400'",
       "error: <string>:2: not an unsigned integer: '1e400'"},
      {"1e-400",
       "error: <string>:2: not a number: '1e-400'",
       "error: <string>:2: not an unsigned integer: '1e-400'"},
      {"nan",
       "error: <string>:2: validate_flow: daily_vehicles must be finite and >= 0",
       "error: <string>:2: not an unsigned integer: 'nan'"},
      {"inf",
       "error: <string>:2: validate_flow: daily_vehicles must be finite and >= 0",
       "error: <string>:2: not an unsigned integer: 'inf'"},
      {"",
       "error: <string>:2: not a number: ''",
       "error: <string>:2: not an unsigned integer: ''"},
      {"1.5x",
       "error: <string>:2: not a number: '1.5x'",
       "error: <string>:2: not an unsigned integer: '1.5x'"},
      {"-0",
       "ok -0x0p+0",
       "error: <string>:2: not an unsigned integer: '-0'"},
      {"4294967296",
       "ok 0x1p+32",
       "error: <string>:2: not an unsigned integer: '4294967296'"},
      {"1e-310",
       "error: <string>:2: not a number: '1e-310'",
       "error: <string>:2: not an unsigned integer: '1e-310'"},
      {"-nan",
       "error: <string>:2: validate_flow: daily_vehicles must be finite and >= 0",
       "error: <string>:2: not an unsigned integer: '-nan'"},
      {"Infinity",
       "error: <string>:2: validate_flow: daily_vehicles must be finite and >= 0",
       "error: <string>:2: not an unsigned integer: 'Infinity'"},
      {"1.5 ",
       "error: <string>:2: not a number: '1.5 '",
       "error: <string>:2: not an unsigned integer: '1.5 '"},
      {".5",
       "ok 0x1p-1",
       "error: <string>:2: not an unsigned integer: '.5'"},
      {"5.",
       "ok 0x1.4p+2",
       "error: <string>:2: not an unsigned integer: '5.'"},
      {"-.5e1",
       "error: <string>:2: validate_flow: daily_vehicles must be finite and >= 0",
       "error: <string>:2: not an unsigned integer: '-.5e1'"},
      {"1E5",
       "ok 0x1.86ap+16",
       "error: <string>:2: not an unsigned integer: '1E5'"},
      {"007",
       "ok 0x1.cp+2",
       "error: <string>:2: validate_flow: path endpoints disagree with origin/destination"},
      {"-",
       "error: <string>:2: not a number: '-'",
       "error: <string>:2: not an unsigned integer: '-'"},
      {"e5",
       "error: <string>:2: not a number: 'e5'",
       "error: <string>:2: not an unsigned integer: 'e5'"},
      {"-1",
       "error: <string>:2: validate_flow: daily_vehicles must be finite and >= 0",
       "error: <string>:2: not an unsigned integer: '-1'"},
      {"0x10",
       "ok 0x1p+4",
       "error: <string>:2: not an unsigned integer: '0x10'"},
      {"\t2",
       "ok 0x1p+1",
       "error: <string>:2: not an unsigned integer: '\t2'"},
      {"2.5e",
       "error: <string>:2: not a number: '2.5e'",
       "error: <string>:2: not an unsigned integer: '2.5e'"},
      {"nan(1)",
       "error: <string>:2: validate_flow: daily_vehicles must be finite and >= 0",
       "error: <string>:2: not an unsigned integer: 'nan(1)'"},
  };
  const auto net = testing::line_network(3);
  const std::string flow_header =
      "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n";
  for (const auto& c : cases) {
    const std::string text(c.text);
    EXPECT_EQ(testing::parse_verdict([&] {
                return flows_from_csv(net,
                                      flow_header + "0,2," + text +
                                          ",1,0.5,0|1|2\n")
                    .at(0)
                    .daily_vehicles;
              }),
              c.daily_vehicles)
        << "daily_vehicles '" << text << "'";
    EXPECT_EQ(testing::parse_verdict([&] {
                return static_cast<double>(
                    flows_from_csv(net, flow_header + "0,2,1,1,0.5,0|1|" +
                                            text + "\n")
                        .at(0)
                        .path.back());
              }),
              c.path_id)
        << "path id '" << text << "'";
  }
}

TEST(TraceCsv, WriteErrorsAtCloseThrow) {
  // Header-only files fit the stream's buffer, so /dev/full only refuses
  // them when the file is flushed and closed.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto expect_names_path = [](const auto& write) {
    try {
      write();
      ADD_FAILURE() << "expected a write error";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("/dev/full"), std::string::npos)
          << error.what();
    }
  };
  expect_names_path([] { write_flows_csv("/dev/full", {}); });
}

}  // namespace
}  // namespace rap::trace
