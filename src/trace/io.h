// Flow CSV I/O. Flows serialise as (header required, column order fixed)
//   origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path
// with `path` a '|'-separated node-id list — enough to check a regenerated
// workload into version control or feed in a real, externally matched one.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "src/traffic/flow.h"

namespace rap::trace {

/// Serialises flows to CSV text (with header).
[[nodiscard]] std::string flows_to_csv(
    std::span<const traffic::TrafficFlow> flows);

/// Parses flows from CSV text; paths are validated against `net`. Errors
/// name `source_name` and the 1-based line of the offending row.
[[nodiscard]] std::vector<traffic::TrafficFlow> flows_from_csv(
    const graph::RoadNetwork& net, std::string_view text,
    std::string_view source_name = "<string>");

/// File forms (throw std::runtime_error naming the path on any I/O failure,
/// the final flush and close included). read_flows_csv reads the file
/// twice, a chunk at a time: once to count its line breaks, so that the
/// flows vector is reserved once and never regrows (as flows_from_csv does
/// with the text), then to parse it.
void write_flows_csv(const std::filesystem::path& path,
                     std::span<const traffic::TrafficFlow> flows);
[[nodiscard]] std::vector<traffic::TrafficFlow> read_flows_csv(
    const graph::RoadNetwork& net, const std::filesystem::path& path);

}  // namespace rap::trace
