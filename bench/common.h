// Shared workload construction for the figure benches: the Dublin-like and
// Seattle-like cities with synthetic bus traces, matching Section V-A's
// stated scales (Dublin central area 80,000 x 80,000 ft, 100 passengers per
// bus; Seattle central area 10,000 x 10,000 ft, 200 passengers per bus,
// alpha = 0.001).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/eval/report.h"
#include "src/eval/runner.h"
#include "src/graph/road_network.h"

namespace rap::bench {

/// A workload plus ownership of its road network.
struct CityWorkload {
  std::unique_ptr<graph::RoadNetwork> net;
  eval::Workload workload;
};

/// Dublin-like substrate: irregular radial city across ~80,000 ft,
/// journey-pattern trace, 100 passengers/bus.
[[nodiscard]] CityWorkload build_dublin(std::uint64_t seed,
                                        std::size_t journeys = 120);

/// Seattle-like substrate: partially grid-based city across ~10,000 ft,
/// route-id trace, 200 passengers/bus.
[[nodiscard]] CityWorkload build_seattle(std::uint64_t seed,
                                         std::size_t journeys = 100);

/// Runs each experiment, prints its table to stdout, and writes one CSV per
/// experiment under `csv_dir` (skipped when empty). Each run records
/// telemetry (per-stage spans, algorithm work counters — see src/obs/) and
/// writes it next to the CSV as `<name>.telemetry.json` in the
/// rap.telemetry.v1 schema, so result directories carry a perf trajectory
/// alongside the quality numbers.
void run_and_report(const eval::Workload& workload,
                    const std::vector<eval::ExperimentConfig>& configs,
                    const std::filesystem::path& csv_dir);

/// The paper's evaluation algorithm set for the general scenario.
[[nodiscard]] std::vector<eval::AlgorithmId> general_algorithms();

/// The algorithm set for the Manhattan scenario (adds Algorithms 3/4).
[[nodiscard]] std::vector<eval::AlgorithmId> manhattan_algorithms();

/// The paper's all-pairs preprocessing, for benches that time it: row s
/// holds graph::dijkstra(net, s)'s distances. Rows are filled in 16-source
/// chunks under util::parallel_for, so the result is the same for every
/// thread count. The library itself prices detours off the shop's two
/// trees and builds no such table.
[[nodiscard]] std::vector<std::vector<double>> all_pairs_rows(
    const graph::RoadNetwork& net);

// ---------------------------------------------------------------------------
// rap.bench.v1 — the standard bench result schema.
//
// Every bench/* executable writes its --out file in this shape so
// tools/bench_compare can diff any result against a committed baseline
// (bench/baselines/) without per-bench parsers:
//
//   {
//     "schema": "rap.bench.v1",
//     "bench": "serve_throughput",
//     "context": { "city": "seattle", "k": "8", ... },   // strings, sorted
//     "metrics": [
//       { "name": "cached.ms_per_request", "value": 1.9,
//         "unit": "ms", "lower_is_better": true },
//       ...
//     ]
//   }
//
// "context" is descriptive only (machine, parameters, notes) — comparers
// must ignore it for pass/fail. write_bench_json adds the host's
// "hardware_concurrency" and "build_type" to every document, and
// bench_compare warns when either differs from the baseline's. Units
// drive tolerance classification in bench_compare: wall-clock-derived units (ms, s, x, ratio, req_s) are
// noisy across machines and get the loose --time-tolerance; anything else
// (count, bytes) is treated as deterministic and compared strictly.
// ---------------------------------------------------------------------------

/// Name of the schema, also the "schema" field's value.
inline constexpr const char* kBenchSchema = "rap.bench.v1";

/// One measured value. `name` is dotted-lowercase like telemetry names.
struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit = "ms";
  bool lower_is_better = true;
};

/// Writes a rap.bench.v1 document. `context` entries are emitted sorted by
/// key; metrics keep their given order. Throws std::runtime_error when the
/// file cannot be written.
void write_bench_json(
    const std::filesystem::path& path, const std::string& bench,
    const std::vector<std::pair<std::string, std::string>>& context,
    const std::vector<BenchMetric>& metrics);

}  // namespace rap::bench
