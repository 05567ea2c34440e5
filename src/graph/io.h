// Road-network CSV serialisation. One self-describing text format:
//
//   node,x,y
//   ...            (one row per intersection, ids implicit by order)
//   edge,from,to,length
//   ...            (one row per DIRECTED edge)
//
// Two-way streets appear as two edge rows, so a round trip keeps the
// topology exactly. Coordinates and lengths are written with six decimals,
// so a round trip moves each by at most half of the 1e-6 quantum (the
// generators' non-integer coordinates and Euclidean lengths do move), and
// the written text is a fixed point: saving a loaded network reproduces the
// file byte for byte. Integer lengths (ROADMAP item 2) would make the round
// trip exact. Lets users persist generated cities or load real maps
// exported from GIS tooling.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

#include "src/graph/road_network.h"

namespace rap::graph {

/// Serialises the network (nodes first, then edges).
[[nodiscard]] std::string network_to_csv(const RoadNetwork& net);

/// Parses a network. Throws std::invalid_argument on malformed rows,
/// unknown row kinds, edges before all their endpoints, or invalid edge
/// data (RoadNetwork's own validation applies). Every parse error names the
/// source and the 1-based line of the offending row, e.g.
/// "net.csv:7: edge row needs from,to,length". `source_name` labels the
/// text's origin ("<string>" by default; the file wrapper passes the path).
[[nodiscard]] RoadNetwork network_from_csv(std::string_view text,
                                           std::string_view source_name =
                                               "<string>");

/// File wrappers (throw std::runtime_error naming the path on any I/O
/// failure, the final flush and close included).
void write_network_csv(const std::filesystem::path& path,
                       const RoadNetwork& net);
[[nodiscard]] RoadNetwork read_network_csv(const std::filesystem::path& path);

}  // namespace rap::graph
