// Flow extraction: grouped trace records -> traffic flows T(i,j).
//
// "Buses with the same vehicle journey id have similar routing paths"
// (Section V-A) — so each journey/route id becomes one traffic flow. Every
// run of the journey is map-matched to a walk; the most frequent walk
// becomes the flow's representative path, and the number of runs the flow's
// daily vehicle count.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "src/trace/map_matcher.h"
#include "src/trace/record.h"
#include "src/traffic/flow.h"

namespace rap::trace {

struct ExtractionOptions {
  /// Potential customers per vehicle (100 Dublin / 200 Seattle).
  double passengers_per_vehicle = 100.0;
  /// Advertisement attractiveness alpha(T(i,j)).
  double alpha = 0.001;
  /// Journeys with fewer successfully matched runs are discarded.
  std::size_t min_runs = 1;
};

/// Extracts the flow of one journey from its records, all of one journey id
/// and sorted by (run, timestamp). Runs that fail to match are skipped;
/// std::nullopt when fewer than max(min_runs, 1) runs match. Throws
/// std::invalid_argument on unsorted input, mixed journey ids or bad
/// options.
[[nodiscard]] std::optional<traffic::TrafficFlow> extract_journey(
    const MapMatcher& matcher, std::span<const TraceRecord> records,
    const ExtractionOptions& options = {});

/// Extracts one flow per journey id from sorted records: extract_journey
/// over each journey's contiguous records, in ascending journey id. Throws
/// std::invalid_argument on unsorted input or bad options.
[[nodiscard]] std::vector<traffic::TrafficFlow> extract_flows(
    const MapMatcher& matcher, std::span<const TraceRecord> records,
    const ExtractionOptions& options = {});

}  // namespace rap::trace
