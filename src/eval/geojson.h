// GeoJSON export for visual inspection of a scenario: streets as
// LineStrings, flows as LineStrings with volume properties, and the shop /
// RAP placement as Points. The output is a single FeatureCollection that
// drops straight into geojson.io or any GIS tool (coordinates are the
// network's planar feet; consumers can treat them as a local CRS).
#pragma once

#include <filesystem>
#include <span>
#include <string>

#include "src/core/problem.h"

namespace rap::eval {

struct GeoJsonOptions {
  bool include_streets = true;
  /// Flows with fewer daily vehicles are skipped (declutters dense maps).
  double min_flow_vehicles = 0.0;
};

/// Renders the scenario as a GeoJSON FeatureCollection string.
/// `placement` may be empty. Throws std::out_of_range on bad node ids.
[[nodiscard]] std::string to_geojson(
    const graph::RoadNetwork& net,
    std::span<const traffic::TrafficFlow> flows, graph::NodeId shop,
    std::span<const graph::NodeId> placement, const GeoJsonOptions& options = {});

/// Writes to_geojson output to a file (parents created). Throws on I/O
/// failure.
void write_geojson(const std::filesystem::path& path,
                   const graph::RoadNetwork& net,
                   std::span<const traffic::TrafficFlow> flows,
                   graph::NodeId shop,
                   std::span<const graph::NodeId> placement,
                   const GeoJsonOptions& options = {});

}  // namespace rap::eval
