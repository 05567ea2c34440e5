#include "src/traffic/detour.h"

#include <stdexcept>

#include "src/graph/path.h"

namespace rap::traffic {
namespace {

/// Fills `out` with the distance travelled to each path node and returns
/// the path's length. Throws kNotAWalk, or when the path does not end at
/// the flow's destination.
double travelled_along_path(const graph::RoadNetwork& net,
                            const TrafficFlow& flow, std::span<double> out) {
  if (!graph::cumulative_lengths(net, flow.path, out)) {
    throw std::invalid_argument(kNotAWalk);
  }
  if (flow.path.back() != flow.destination) {
    throw std::invalid_argument(
        "detours_along_path: path does not end at the flow's destination");
  }
  return out.back();
}

}  // namespace

DetourCalculator::DetourCalculator(const graph::RoadNetwork& net,
                                   graph::NodeId shop)
    : net_(&net), shop_(shop) {
  net.check_node(shop);
  to_shop_ = graph::dijkstra(net, shop, graph::Direction::kReverse).distances();
  from_shop_ =
      graph::dijkstra(net, shop, graph::Direction::kForward).distances();
}

void DetourCalculator::price_path(const TrafficFlow& flow,
                                  std::span<double> out) const {
  const double total = travelled_along_path(*net_, flow, out);
  const double d2 = from_shop_[flow.destination];  // d''
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = detour_distance(to_shop_[flow.path[i]], d2, total - out[i]);
  }
}

}  // namespace rap::traffic
