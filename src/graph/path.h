// Path utilities: validation and prefix sums of the distance travelled,
// used to compute the paper's d''' (remaining distance to the destination
// along the driver's route).
#pragma once

#include <span>
#include <vector>

#include "src/graph/road_network.h"

namespace rap::graph {

/// True if consecutive nodes are joined by an edge in the network.
[[nodiscard]] bool is_walk(const RoadNetwork& net, std::span<const NodeId> path);

/// cumulative[i] = distance travelled from path.front() to path[i], so
/// cumulative.back() is the walk's length (0 for a single node). When
/// parallel edges exist the shortest one is charged. Checks and sums in one
/// pass; throws std::invalid_argument if `path` is empty or not a walk.
[[nodiscard]] std::vector<double> cumulative_lengths(
    const RoadNetwork& net, std::span<const NodeId> path);

/// The same sums written into `out` (out.size() == path.size()). Returns
/// false, with `out` partly written, if `path` is empty or not a walk.
[[nodiscard]] bool cumulative_lengths(const RoadNetwork& net,
                                      std::span<const NodeId> path,
                                      std::span<double> out);

}  // namespace rap::graph
