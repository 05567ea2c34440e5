// The generated cities of the evaluation by name: a Dublin-like radial city,
// a Seattle-like partial grid and a plain grid, each with the trace spec its
// day is sampled with and the radius its samples snap within (DESIGN.md §3).
// rap_cli and the serve layer's `load` both build their cities here, so
// "seattle seed 1" means the same network and flows to both.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "src/graph/road_network.h"
#include "src/trace/flow_extractor.h"
#include "src/trace/generator.h"
#include "src/traffic/flow.h"
#include "src/util/rng.h"

namespace rap::trace {

struct CityPreset {
  graph::RoadNetwork net;
  TraceGenSpec gen;
  double snap_radius = 0.0;

  /// Extraction of the day's flows: the spec's passengers and alpha.
  [[nodiscard]] ExtractionOptions extraction() const noexcept;
};

/// Builds city `name` (dublin | seattle | grid) from `rng`, with `journeys`
/// journeys planted in its day. Throws std::invalid_argument on any other
/// name, before any draw.
[[nodiscard]] CityPreset make_city(std::string_view name,
                                   std::size_t journeys, util::Rng& rng);

/// The flows of `city`'s day, generated from `rng` and matched one journey
/// at a time: equal to extract_flows over generate_trace's records, with
/// the same draws from `rng`, but holding one journey's records at once.
[[nodiscard]] std::vector<traffic::TrafficFlow> stream_flows(
    const CityPreset& city, util::Rng& rng);

}  // namespace rap::trace
