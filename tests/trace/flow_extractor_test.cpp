#include "src/trace/flow_extractor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/citygen/grid_city.h"
#include "src/trace/generator.h"

namespace rap::trace {
namespace {

graph::RoadNetwork test_city() {
  return citygen::GridCity({8, 8, 500.0, {0.0, 0.0}}).network();
}

TraceGenSpec gen_spec() {
  TraceGenSpec spec;
  spec.num_journeys = 12;
  spec.mean_runs_per_journey = 6.0;
  spec.sample_spacing = 250.0;
  spec.gps_noise = 40.0;
  spec.drop_prob = 0.05;
  spec.passengers_per_vehicle = 100.0;
  spec.alpha = 0.001;
  return spec;
}

class ExtractionPipeline : public ::testing::Test {
 protected:
  ExtractionPipeline() : net_(test_city()), matcher_(net_, 220.0) {
    util::Rng rng(17);
    trace_ = generate_trace(net_, gen_spec(), rng);
  }

  graph::RoadNetwork net_;
  MapMatcher matcher_;
  SyntheticTrace trace_;
};

TEST_F(ExtractionPipeline, RecoversEveryPlantedJourney) {
  const auto flows = extract_flows(matcher_, trace_.records);
  EXPECT_EQ(flows.size(), trace_.planted_flows.size());
}

TEST_F(ExtractionPipeline, RecoversVehicleCounts) {
  const auto flows = extract_flows(matcher_, trace_.records);
  ASSERT_EQ(flows.size(), trace_.planted_flows.size());
  double planted_total = 0.0;
  double extracted_total = 0.0;
  for (const auto& f : trace_.planted_flows) planted_total += f.daily_vehicles;
  for (const auto& f : flows) extracted_total += f.daily_vehicles;
  // A handful of runs may fail to match; the totals must be close.
  EXPECT_GE(extracted_total, 0.9 * planted_total);
  EXPECT_LE(extracted_total, planted_total);
}

TEST_F(ExtractionPipeline, RecoversEndpointsApproximately) {
  const auto flows = extract_flows(matcher_, trace_.records);
  // Flows are emitted in journey-id order, matching planted order.
  ASSERT_EQ(flows.size(), trace_.planted_flows.size());
  std::size_t exact_endpoints = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    exact_endpoints += flows[i].origin == trace_.planted_flows[i].origin &&
                       flows[i].destination == trace_.planted_flows[i].destination;
  }
  // GPS noise can shift an endpoint to an adjacent intersection; most must
  // survive exactly.
  EXPECT_GE(exact_endpoints, flows.size() * 3 / 4);
}

TEST_F(ExtractionPipeline, ExtractedPathsAreValidFlows) {
  for (const auto& flow : extract_flows(matcher_, trace_.records)) {
    EXPECT_NO_THROW(traffic::validate_flow(net_, flow));
    EXPECT_GE(flow.path.size(), 2u);
  }
}

TEST_F(ExtractionPipeline, OptionsArePropagated) {
  ExtractionOptions options;
  options.passengers_per_vehicle = 200.0;
  options.alpha = 0.01;
  for (const auto& flow : extract_flows(matcher_, trace_.records, options)) {
    EXPECT_DOUBLE_EQ(flow.passengers_per_vehicle, 200.0);
    EXPECT_DOUBLE_EQ(flow.alpha, 0.01);
  }
}

TEST_F(ExtractionPipeline, MinRunsFiltersSparseJourneys) {
  ExtractionOptions strict;
  strict.min_runs = 1000;  // nothing has this many runs
  EXPECT_TRUE(extract_flows(matcher_, trace_.records, strict).empty());
}

TEST_F(ExtractionPipeline, ExtractJourneyOverEachJourneyIsExtractFlows) {
  const std::span<const TraceRecord> all(trace_.records);
  std::vector<traffic::TrafficFlow> per_journey;
  for (std::size_t begin = 0; begin < all.size();) {
    std::size_t end = begin;
    while (end < all.size() && all[end].journey_id == all[begin].journey_id) {
      ++end;
    }
    if (auto flow = extract_journey(matcher_, all.subspan(begin, end - begin))) {
      per_journey.push_back(std::move(*flow));
    }
    begin = end;
  }
  EXPECT_EQ(per_journey.size(), trace_.planted_flows.size());
  EXPECT_TRUE(per_journey == extract_flows(matcher_, trace_.records));
}

TEST_F(ExtractionPipeline, ExtractJourneyRejectsMixedJourneys) {
  EXPECT_THROW(extract_journey(matcher_, trace_.records),
               std::invalid_argument);
}

TEST(ExtractJourney, NoMatchedRunGivesNoFlow) {
  const auto net = test_city();
  const MapMatcher matcher(net, 200.0);
  EXPECT_FALSE(extract_journey(matcher, {}).has_value());
  // Every sample lies far outside the snap radius of any intersection.
  std::vector<TraceRecord> records(3);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].journey_id = 4;
    records[i].timestamp = static_cast<double>(i);
    records[i].position = {-50'000.0, -50'000.0};
  }
  EXPECT_FALSE(extract_journey(matcher, records).has_value());
  ExtractionOptions bad;
  bad.alpha = -1.0;
  EXPECT_THROW(extract_journey(matcher, records, bad), std::invalid_argument);
}

TEST(ExtractFlows, EmptyRecords) {
  const auto net = test_city();
  const MapMatcher matcher(net, 200.0);
  EXPECT_TRUE(extract_flows(matcher, {}).empty());
}

TEST(ExtractFlows, RejectsBadOptions) {
  const auto net = test_city();
  const MapMatcher matcher(net, 200.0);
  ExtractionOptions bad;
  bad.passengers_per_vehicle = 0.0;
  EXPECT_THROW(extract_flows(matcher, {}, bad), std::invalid_argument);
  bad = {};
  bad.alpha = 2.0;
  EXPECT_THROW(extract_flows(matcher, {}, bad), std::invalid_argument);
}

TEST(ExtractFlows, RejectsUnsortedRecords) {
  const auto net = test_city();
  const MapMatcher matcher(net, 200.0);
  std::vector<TraceRecord> records(2);
  records[0].journey_id = 1;
  records[1].journey_id = 0;
  EXPECT_THROW(extract_flows(matcher, records), std::invalid_argument);
}

TEST(ExtractFlows, PicksMostFrequentWalk) {
  // Three runs of journey 0: two along the bottom row, one detouring.
  const citygen::GridCity city({3, 2, 1.0, {0.0, 0.0}});
  const MapMatcher matcher(city.network(), 0.3);
  std::vector<TraceRecord> records;
  const auto add_run = [&](std::uint32_t run, std::vector<geo::Point> pts) {
    double t = 0.0;
    for (const geo::Point& p : pts) {
      TraceRecord r;
      r.journey_id = 0;
      r.run_id = run;
      r.timestamp = t++;
      r.position = p;
      records.push_back(r);
    }
  };
  add_run(0, {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}});
  add_run(1, {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}});
  add_run(2, {{0.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {2.0, 1.0}, {2.0, 0.0}});
  sort_records(records);
  const auto flows = extract_flows(matcher, records);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].path,
            (std::vector<graph::NodeId>{city.node_at(0, 0), city.node_at(1, 0),
                                        city.node_at(2, 0)}));
  EXPECT_DOUBLE_EQ(flows[0].daily_vehicles, 3.0);  // all matched runs counted
}

}  // namespace
}  // namespace rap::trace
