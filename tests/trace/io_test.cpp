#include "src/trace/io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/trace/generator.h"
#include "tests/testing/builders.h"

namespace rap::trace {
namespace {

std::vector<TraceRecord> sample_records() {
  std::vector<TraceRecord> records(3);
  records[0] = {1, 10, 100, 0.5, {12.25, -3.5}};
  records[1] = {1, 10, 100, 1.5, {14.0, -2.0}};
  records[2] = {2, 11, 101, 0.0, {0.0, 0.0}};
  return records;
}

TEST(RecordsCsv, RoundTrip) {
  const auto records = sample_records();
  const auto parsed = records_from_csv(records_to_csv(records));
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i].vehicle_id, records[i].vehicle_id);
    EXPECT_EQ(parsed[i].journey_id, records[i].journey_id);
    EXPECT_EQ(parsed[i].run_id, records[i].run_id);
    EXPECT_NEAR(parsed[i].timestamp, records[i].timestamp, 1e-3);
    EXPECT_NEAR(parsed[i].position.x, records[i].position.x, 1e-3);
    EXPECT_NEAR(parsed[i].position.y, records[i].position.y, 1e-3);
  }
}

TEST(RecordsCsv, HeaderOnly) {
  const auto parsed = records_from_csv(records_to_csv({}));
  EXPECT_TRUE(parsed.empty());
}

TEST(RecordsCsv, RejectsBadInput) {
  EXPECT_THROW(records_from_csv(""), std::invalid_argument);
  EXPECT_THROW(records_from_csv("wrong,header\n"), std::invalid_argument);
  const std::string good_header = "vehicle_id,journey_id,run_id,timestamp,x,y\n";
  EXPECT_THROW(records_from_csv(good_header + "1,2,3\n"),
               std::invalid_argument);
  EXPECT_THROW(records_from_csv(good_header + "a,2,3,0.0,1.0,2.0\n"),
               std::invalid_argument);
  EXPECT_THROW(records_from_csv(good_header + "1,2,3,zz,1.0,2.0\n"),
               std::invalid_argument);
}

TEST(RecordsCsv, FileRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "rap_trace_io";
  std::filesystem::remove_all(dir);
  const auto path = dir / "records.csv";
  write_records_csv(path, sample_records());
  const auto parsed = read_records_csv(path);
  EXPECT_EQ(parsed.size(), 3u);
  std::filesystem::remove_all(dir);
}

TEST(RecordsCsv, MissingFileThrows) {
  EXPECT_THROW(read_records_csv("/nonexistent/rap/records.csv"),
               std::runtime_error);
}

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

TEST(TraceIo, GeneratedTraceSurvivesRoundTrip) {
  // The full circle: generate -> serialize -> parse -> identical pipeline
  // inputs (sorted order preserved).
  util::Rng net_rng(1);
  const auto net = testing::random_network(6, 6, 6, net_rng);
  TraceGenSpec spec;
  spec.num_journeys = 5;
  spec.mean_runs_per_journey = 3.0;
  spec.sample_spacing = 0.8;
  spec.gps_noise = 0.05;
  util::Rng rng(2);
  const SyntheticTrace trace = generate_trace(net, spec, rng);
  const auto parsed = records_from_csv(records_to_csv(trace.records));
  ASSERT_EQ(parsed.size(), trace.records.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].journey_id, trace.records[i].journey_id);
    EXPECT_EQ(parsed[i].run_id, trace.records[i].run_id);
  }
}

}  // namespace
}  // namespace rap::trace
