#include "src/traffic/detour.h"

#include <stdexcept>

#include "src/graph/path.h"

namespace rap::traffic {

std::vector<double> remaining_along_path(const graph::RoadNetwork& net,
                                         const TrafficFlow& flow) {
  std::vector<double> out = graph::cumulative_lengths(net, flow.path);
  if (flow.path.back() != flow.destination) {
    throw std::invalid_argument(
        "remaining_along_path: path does not end at the flow's destination");
  }
  const double total = out.back();
  for (double& travelled : out) travelled = total - travelled;
  return out;
}

DetourCalculator::DetourCalculator(const graph::RoadNetwork& net,
                                   graph::NodeId shop)
    : net_(&net), shop_(shop) {
  net.check_node(shop);
  to_shop_ = graph::dijkstra(net, shop, graph::Direction::kReverse).distances();
  from_shop_ =
      graph::dijkstra(net, shop, graph::Direction::kForward).distances();
}

std::vector<double> DetourCalculator::detours_along_path(
    const TrafficFlow& flow) const {
  std::vector<double> out = remaining_along_path(*net_, flow);  // d'''
  const double d2 = from_shop_[flow.destination];               // d''
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = detour_distance(to_shop_[flow.path[i]], d2, out[i]);
  }
  return out;
}

}  // namespace rap::traffic
