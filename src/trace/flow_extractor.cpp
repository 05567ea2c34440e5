#include "src/trace/flow_extractor.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace rap::trace {
namespace {

void validate_options(const ExtractionOptions& options) {
  if (!(options.passengers_per_vehicle > 0.0)) {
    throw std::invalid_argument(
        "extract_flows: passengers_per_vehicle must be > 0");
  }
  if (options.alpha < 0.0 || options.alpha > 1.0) {
    throw std::invalid_argument("extract_flows: alpha must be in [0, 1]");
  }
}

/// The flow of one journey's runs: each run is matched to a walk, the most
/// frequent walk is the path and the number of matched runs the vehicles.
std::optional<traffic::TrafficFlow> journey_flow(
    const MapMatcher& matcher, std::span<const RunView> runs,
    const ExtractionOptions& options) {
  // walk -> multiplicity; std::map keeps walks comparable without hashing.
  std::map<std::vector<graph::NodeId>, std::size_t> walks;
  std::size_t run_count = 0;
  for (const RunView& run : runs) {
    std::vector<graph::NodeId> walk = matcher.match_run(run.records);
    if (walk.size() < 2) continue;  // unmatched or trivial run
    ++walks[std::move(walk)];
    ++run_count;
  }
  if (walks.empty() || run_count < options.min_runs) return std::nullopt;
  // Representative path: the most frequent walk (ties: the first in
  // lexicographic walk order, deterministic).
  const auto representative = std::max_element(
      walks.begin(), walks.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  traffic::TrafficFlow flow;
  flow.path = representative->first;
  flow.origin = flow.path.front();
  flow.destination = flow.path.back();
  flow.daily_vehicles = static_cast<double>(run_count);
  flow.passengers_per_vehicle = options.passengers_per_vehicle;
  flow.alpha = options.alpha;
  traffic::validate_flow(matcher.network(), flow);
  return flow;
}

}  // namespace

std::optional<traffic::TrafficFlow> extract_journey(
    const MapMatcher& matcher, std::span<const TraceRecord> records,
    const ExtractionOptions& options) {
  validate_options(options);
  for (const TraceRecord& record : records) {
    if (record.journey_id != records.front().journey_id) {
      throw std::invalid_argument(
          "extract_journey: records span more than one journey");
    }
  }
  const std::vector<RunView> runs = split_runs(records);  // validates sorting
  return journey_flow(matcher, runs, options);
}

std::vector<traffic::TrafficFlow> extract_flows(
    const MapMatcher& matcher, std::span<const TraceRecord> records,
    const ExtractionOptions& options) {
  validate_options(options);
  const std::vector<RunView> runs = split_runs(records);  // validates sorting

  // Sorted records keep each journey's runs contiguous.
  std::vector<traffic::TrafficFlow> flows;
  for (std::size_t begin = 0; begin < runs.size();) {
    std::size_t end = begin + 1;
    while (end < runs.size() && runs[end].journey_id == runs[begin].journey_id) {
      ++end;
    }
    if (auto flow = journey_flow(
            matcher, std::span(runs).subspan(begin, end - begin), options)) {
      flows.push_back(std::move(*flow));
    }
    begin = end;
  }
  return flows;
}

}  // namespace rap::trace
