#include "bench/common.h"

#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/citygen/partial_grid_city.h"
#include "src/obs/json.h"
#include "src/obs/telemetry.h"
#include "src/citygen/radial_city.h"
#include "src/graph/dijkstra.h"
#include "src/trace/flow_extractor.h"
#include "src/trace/generator.h"
#include "src/util/rng.h"
#include "src/util/text_file.h"
#include "src/util/thread_pool.h"
#include "rap_version.h"

namespace rap::bench {
namespace {

eval::Workload assemble(const graph::RoadNetwork& net, std::string name,
                        const trace::TraceGenSpec& spec, double snap_radius,
                        util::Rng& rng) {
  const trace::SyntheticTrace trace = trace::generate_trace(net, spec, rng);
  const trace::MapMatcher matcher(net, snap_radius);
  trace::ExtractionOptions options;
  options.passengers_per_vehicle = spec.passengers_per_vehicle;
  options.alpha = spec.alpha;
  auto flows = trace::extract_flows(matcher, trace.records, options);
  return eval::make_workload(net, std::move(flows), std::move(name));
}

}  // namespace

CityWorkload build_dublin(std::uint64_t seed, std::size_t journeys) {
  util::Rng rng(seed);
  // ~80,000 ft across: 12 rings spaced 3,300 ft -> radius ~39,600 ft.
  citygen::RadialSpec city;
  city.rings = 12;
  city.nodes_on_first_ring = 8;
  city.nodes_per_ring_step = 5;
  city.ring_spacing = 3'300.0;
  city.angular_jitter = 0.12;
  city.radial_jitter = 0.08;
  city.chord_prob = 0.06;
  city.oneway_prob = 0.06;
  CityWorkload out;
  out.net = std::make_unique<graph::RoadNetwork>(build_radial_city(city, rng));

  trace::TraceGenSpec spec;
  spec.num_journeys = journeys;
  spec.mean_runs_per_journey = 40.0;  // buses per journey pattern per day
  spec.sample_spacing = 900.0;
  spec.gps_noise = 150.0;
  spec.drop_prob = 0.05;
  spec.speed = 30.0;
  spec.passengers_per_vehicle = 100.0;  // Dublin: 100 passengers per bus
  spec.alpha = 0.001;
  spec.min_trip_fraction = 0.2;
  // Tight snap radius relative to the ~3,000 ft block size: mid-block
  // samples are discarded (the matcher's shortest-path stitching bridges
  // them) instead of snapping noisily to the nearest endpoint.
  out.workload = assemble(*out.net, "dublin", spec, /*snap_radius=*/450.0, rng);
  return out;
}

CityWorkload build_seattle(std::uint64_t seed, std::size_t journeys) {
  util::Rng rng(seed);
  // 10,000 x 10,000 ft central area: 21 x 21 grid, 500 ft blocks, with the
  // partial-grid irregularities Seattle's plan exhibits.
  citygen::PartialGridSpec city;
  city.grid = {21, 21, 500.0, {0.0, 0.0}};
  city.edge_removal_prob = 0.08;
  city.node_removal_prob = 0.03;
  city.oneway_prob = 0.05;
  city.position_jitter = 0.0;
  citygen::PartialGridCity built(city, rng);
  CityWorkload out;
  out.net = std::make_unique<graph::RoadNetwork>(built.network());

  trace::TraceGenSpec spec;
  spec.num_journeys = journeys;
  spec.mean_runs_per_journey = 30.0;
  spec.sample_spacing = 350.0;
  spec.gps_noise = 60.0;
  spec.drop_prob = 0.05;
  spec.speed = 30.0;
  spec.passengers_per_vehicle = 200.0;  // Seattle: 200 passengers per bus
  spec.alpha = 0.001;
  spec.min_trip_fraction = 0.25;
  out.workload = assemble(*out.net, "seattle", spec, /*snap_radius=*/230.0, rng);
  return out;
}

void run_and_report(const eval::Workload& workload,
                    const std::vector<eval::ExperimentConfig>& configs,
                    const std::filesystem::path& csv_dir) {
  for (const eval::ExperimentConfig& config : configs) {
    obs::Telemetry telemetry;
    std::optional<eval::ExperimentResult> result;
    {
      const obs::TelemetryScope scope(telemetry);
      const obs::Span span("experiment:" + config.name);
      result = eval::run_experiment(workload, config);
    }
    std::cout << eval::format_table(*result) << "\n";
    if (!csv_dir.empty()) {
      eval::write_csv(*result, csv_dir / (config.name + ".csv"));
      obs::write_json(csv_dir / (config.name + ".telemetry.json"), telemetry);
    }
  }
}

std::vector<eval::AlgorithmId> general_algorithms() {
  return {eval::AlgorithmId::kGreedyCoverage, eval::AlgorithmId::kCompositeGreedy,
          eval::AlgorithmId::kMaxCardinality, eval::AlgorithmId::kMaxVehicles,
          eval::AlgorithmId::kMaxCustomers,   eval::AlgorithmId::kRandom};
}

std::vector<eval::AlgorithmId> manhattan_algorithms() {
  return {eval::AlgorithmId::kTwoStageCorners,
          eval::AlgorithmId::kTwoStageMidpoints,
          eval::AlgorithmId::kGreedyCoverage,
          eval::AlgorithmId::kCompositeGreedy,
          eval::AlgorithmId::kMaxCustomers,
          eval::AlgorithmId::kRandom};
}

std::vector<std::vector<double>> all_pairs_rows(const graph::RoadNetwork& net) {
  std::vector<std::vector<double>> rows(net.num_nodes());
  util::parallel_for(0, rows.size(), 16, [&](const util::ChunkRange& chunk) {
    for (std::size_t source = chunk.first; source < chunk.last; ++source) {
      rows[source] =
          graph::dijkstra(net, static_cast<graph::NodeId>(source)).distances();
    }
  });
  return rows;
}

void write_bench_json(
    const std::filesystem::path& path, const std::string& bench,
    const std::vector<std::pair<std::string, std::string>>& context,
    const std::vector<BenchMetric>& metrics) {
  std::map<std::string, std::string> sorted_context(context.begin(),
                                                    context.end());
  // The host, in every document: bench_compare warns when a baseline was
  // recorded on a different one.
  sorted_context.try_emplace(
      "hardware_concurrency",
      std::to_string(std::thread::hardware_concurrency()));
  sorted_context.try_emplace(
      "build_type", RAP_BUILD_TYPE[0] != '\0' ? RAP_BUILD_TYPE : "(empty)");
  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kBenchSchema << "\",\n  \"bench\": "
      << obs::json_quote(bench) << ",\n  \"context\": {";
  bool first = true;
  for (const auto& [key, value] : sorted_context) {
    out << (first ? "\n" : ",\n") << "    " << obs::json_quote(key) << ": "
        << obs::json_quote(value);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const BenchMetric& metric = metrics[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": "
        << obs::json_quote(metric.name)
        << ", \"value\": " << obs::json_number_repr(metric.value)
        << ", \"unit\": " << obs::json_quote(metric.unit)
        << ", \"lower_is_better\": "
        << (metric.lower_is_better ? "true" : "false") << "}";
  }
  out << (metrics.empty() ? "" : "\n  ") << "]\n}\n";

  util::write_text_file("write_bench_json", path,
                        [&](std::ostream& file) { file << out.str(); });
}

}  // namespace rap::bench
