#include "src/trace/generator.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "src/citygen/grid_city.h"
#include "src/geo/bbox.h"
#include "tests/testing/shortest_paths.h"

namespace rap::trace {
namespace {

graph::RoadNetwork test_city() {
  return citygen::GridCity({10, 10, 500.0, {0.0, 0.0}}).network();
}

TraceGenSpec small_spec() {
  TraceGenSpec spec;
  spec.num_journeys = 10;
  spec.mean_runs_per_journey = 5.0;
  spec.sample_spacing = 300.0;
  spec.gps_noise = 30.0;
  spec.drop_prob = 0.05;
  return spec;
}

TEST(GenerateTrace, PlantsRequestedJourneys) {
  const auto net = test_city();
  util::Rng rng(1);
  const SyntheticTrace trace = generate_trace(net, small_spec(), rng);
  EXPECT_EQ(trace.planted_flows.size(), 10u);
  EXPECT_FALSE(trace.records.empty());
}

TEST(GenerateTrace, PlantedFlowsAreValidShortestPaths) {
  const auto net = test_city();
  util::Rng rng(2);
  const SyntheticTrace trace = generate_trace(net, small_spec(), rng);
  for (const auto& flow : trace.planted_flows) {
    EXPECT_NO_THROW(traffic::validate_flow(net, flow));
    EXPECT_TRUE(testing::is_shortest_path(net, flow.path));
    EXPECT_GE(flow.daily_vehicles, 1.0);
    EXPECT_DOUBLE_EQ(flow.passengers_per_vehicle, 100.0);
    EXPECT_DOUBLE_EQ(flow.alpha, 0.001);
  }
}

TEST(GenerateTrace, RecordsSortedAndRunCountsMatch) {
  const auto net = test_city();
  util::Rng rng(3);
  const SyntheticTrace trace = generate_trace(net, small_spec(), rng);
  const auto runs = split_runs(trace.records);  // throws if unsorted
  // Number of runs equals the sum of planted vehicle counts (no run loses
  // every sample at drop_prob = 0.05 with these path lengths).
  double planted = 0.0;
  for (const auto& flow : trace.planted_flows) planted += flow.daily_vehicles;
  EXPECT_EQ(static_cast<double>(runs.size()), planted);
}

TEST(GenerateTrace, RunIdsAreGloballyUnique) {
  const auto net = test_city();
  util::Rng rng(4);
  const SyntheticTrace trace = generate_trace(net, small_spec(), rng);
  std::set<std::uint32_t> run_ids;
  for (const auto& run : split_runs(trace.records)) {
    EXPECT_TRUE(run_ids.insert(run.run_id).second);
  }
}

TEST(GenerateTrace, SamplesNearThePath) {
  const auto net = test_city();
  TraceGenSpec spec = small_spec();
  spec.gps_noise = 20.0;
  util::Rng rng(5);
  const SyntheticTrace trace = generate_trace(net, spec, rng);
  // Every record should be within a few noise sigmas of its journey's path.
  for (const auto& run : split_runs(trace.records)) {
    const auto& path = trace.planted_flows[run.journey_id].path;
    for (const TraceRecord& record : run.records) {
      double best = 1e18;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        best = std::min(best, geo::project_onto_segment(
                                  record.position, net.position(path[i]),
                                  net.position(path[i + 1]))
                                  .distance);
      }
      EXPECT_LT(best, 6.0 * spec.gps_noise);
    }
  }
}

TEST(GenerateTrace, TimestampsIncreaseWithinRun) {
  const auto net = test_city();
  util::Rng rng(6);
  const SyntheticTrace trace = generate_trace(net, small_spec(), rng);
  for (const auto& run : split_runs(trace.records)) {
    for (std::size_t i = 1; i < run.records.size(); ++i) {
      EXPECT_GT(run.records[i].timestamp, run.records[i - 1].timestamp);
    }
  }
}

TEST(GenerateTrace, DropProbReducesRecordCount) {
  const auto net = test_city();
  TraceGenSpec keep = small_spec();
  keep.drop_prob = 0.0;
  TraceGenSpec lossy = small_spec();
  lossy.drop_prob = 0.5;
  util::Rng rng1(7);
  util::Rng rng2(7);
  const auto full = generate_trace(net, keep, rng1);
  const auto dropped = generate_trace(net, lossy, rng2);
  EXPECT_LT(dropped.records.size(), full.records.size());
}

TEST(GenerateTrace, DeterministicForSameSeed) {
  const auto net = test_city();
  util::Rng rng1(42);
  util::Rng rng2(42);
  const auto a = generate_trace(net, small_spec(), rng1);
  const auto b = generate_trace(net, small_spec(), rng2);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].position, b.records[i].position);
    EXPECT_EQ(a.records[i].run_id, b.records[i].run_id);
  }
}

TEST(GenerateTrace, MinTripFractionEnforced) {
  const auto net = test_city();
  TraceGenSpec spec = small_spec();
  spec.min_trip_fraction = 0.5;
  util::Rng rng(8);
  const auto trace = generate_trace(net, spec, rng);
  const geo::BBox box = net.bounds();
  const double min_sep = 0.5 * std::hypot(box.width(), box.height());
  for (const auto& flow : trace.planted_flows) {
    EXPECT_GE(euclidean_distance(net.position(flow.origin),
                                 net.position(flow.destination)),
              min_sep);
  }
}

TEST(GenerateTrace, ValidatesSpec) {
  const auto net = test_city();
  util::Rng rng(1);
  TraceGenSpec bad = small_spec();
  bad.num_journeys = 0;
  EXPECT_THROW(generate_trace(net, bad, rng), std::invalid_argument);
  bad = small_spec();
  bad.sample_spacing = 0.0;
  EXPECT_THROW(generate_trace(net, bad, rng), std::invalid_argument);
  bad = small_spec();
  bad.drop_prob = 1.0;
  EXPECT_THROW(generate_trace(net, bad, rng), std::invalid_argument);
  bad = small_spec();
  bad.speed = 0.0;
  EXPECT_THROW(generate_trace(net, bad, rng), std::invalid_argument);
  bad = small_spec();
  bad.gps_noise = -1.0;
  EXPECT_THROW(generate_trace(net, bad, rng), std::invalid_argument);
}

TEST(GenerateTrace, TinyNetworkRejected) {
  graph::NetworkBuilder builder;
  builder.add_node({0.0, 0.0});
  const graph::RoadNetwork net = std::move(builder).build();
  util::Rng rng(1);
  EXPECT_THROW(generate_trace(net, small_spec(), rng), std::invalid_argument);
}

TEST(ForEachJourney, JourneysAreTheCollectedTraceInOrder) {
  const auto net = test_city();
  util::Rng streamed_rng(9);
  std::vector<TraceRecord> records;
  std::vector<traffic::TrafficFlow> planted;
  for_each_journey(net, small_spec(), streamed_rng,
                   [&](const traffic::TrafficFlow& flow,
                       std::span<const TraceRecord> journey) {
                     for (const TraceRecord& record : journey) {
                       EXPECT_EQ(record.journey_id, planted.size());
                     }
                     records.insert(records.end(), journey.begin(),
                                    journey.end());
                     planted.push_back(flow);
                   });
  util::Rng collected_rng(9);
  const SyntheticTrace trace = generate_trace(net, small_spec(), collected_rng);
  EXPECT_TRUE(records == trace.records);
  EXPECT_TRUE(planted == trace.planted_flows);
  EXPECT_EQ(streamed_rng.next_u64(), collected_rng.next_u64());
}

}  // namespace
}  // namespace rap::trace
