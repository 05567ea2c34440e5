#include "src/manhattan/flexible_eval.h"

#include <unordered_map>

#include "src/graph/dijkstra.h"
#include "src/traffic/detour.h"

namespace rap::manhattan {
namespace {

constexpr double kTol = 1e-9;

core::CoverageModel flexible_coverage(
    const graph::RoadNetwork& net,
    const std::vector<traffic::TrafficFlow>& flows, graph::NodeId shop,
    const traffic::UtilityFunction& utility) {
  net.check_node(shop);
  const std::size_t n = net.num_nodes();
  const traffic::DetourCalculator shop_trees(net, shop);  // d' and d''

  // Dijkstra caches keyed by endpoint: many flows share origins/destinations.
  using TreeCache = std::unordered_map<graph::NodeId, graph::ShortestPathTree>;
  TreeCache from_origin;
  TreeCache to_destination;
  const auto cached_tree = [&](TreeCache& cache, graph::NodeId root,
                               graph::Direction direction)
      -> const graph::ShortestPathTree& {
    auto it = cache.find(root);
    if (it == cache.end()) {
      it = cache.emplace(root, graph::dijkstra(net, root, direction)).first;
    }
    return it->second;
  };

  // Stage every node of each flow's shortest-path DAG.
  core::CoverageBuilder builder(net, shop, utility, graph::kUnreachable);
  for (const traffic::TrafficFlow& flow : flows) {
    traffic::validate_flow(net, flow);
    builder.add_flow(flow.population(), flow.alpha);
    const graph::ShortestPathTree& fwd =
        cached_tree(from_origin, flow.origin, graph::Direction::kForward);
    const graph::ShortestPathTree& rev = cached_tree(
        to_destination, flow.destination, graph::Direction::kReverse);
    const double total = fwd.distance(flow.destination);
    if (total == graph::kUnreachable) continue;  // isolated OD: unreachable
    const double shop_to_dest = shop_trees.from_shop()[flow.destination];
    for (graph::NodeId v = 0; v < n; ++v) {
      const double a = fwd.distance(v);
      const double b = rev.distance(v);
      if (a == graph::kUnreachable || b == graph::kUnreachable) continue;
      if (a + b > total + kTol * (1.0 + total)) continue;  // not on the DAG
      builder.add_pass(v, traffic::detour_distance(shop_trees.to_shop()[v],
                                                   shop_to_dest, b));
    }
  }
  return std::move(builder).build();
}

}  // namespace

FlexibleProblem::FlexibleProblem(const graph::RoadNetwork& net,
                                 const std::vector<traffic::TrafficFlow>& flows,
                                 graph::NodeId shop,
                                 const traffic::UtilityFunction& utility)
    : core::CoverageModel(flexible_coverage(net, flows, shop, utility)) {}

}  // namespace rap::manhattan
