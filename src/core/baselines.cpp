#include "src/core/baselines.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/core/evaluator.h"
#include "src/core/k_policy.h"
#include "src/geo/bbox.h"

namespace rap::core {
namespace {

// Top-k node ids by score, descending, ties towards the lowest id; k is
// already clamped to num_nodes.
template <typename ScoreFn>
PlacementResult top_k_by(const CoverageModel& model, std::size_t k,
                         ScoreFn&& score_of) {
  std::vector<graph::NodeId> nodes(model.num_nodes());
  for (graph::NodeId v = 0; v < nodes.size(); ++v) nodes[v] = v;
  std::vector<double> score(nodes.size());
  for (graph::NodeId v = 0; v < nodes.size(); ++v) score[v] = score_of(v);
  std::partial_sort(nodes.begin(),
                    nodes.begin() + static_cast<std::ptrdiff_t>(k),
                    nodes.end(), [&](graph::NodeId a, graph::NodeId b) {
                      if (score[a] != score[b]) return score[a] > score[b];
                      return a < b;
                    });
  nodes.resize(k);
  return {nodes, evaluate_placement(model, nodes)};
}

void check_passing(const CoverageModel& model,
                   const traffic::PassingTraffic& passing, const char* who) {
  if (passing.flows.size() != model.num_nodes() ||
      passing.vehicles.size() != model.num_nodes()) {
    throw std::invalid_argument(std::string(who) +
                                ": passing traffic does not match the model");
  }
}

}  // namespace

PlacementResult max_cardinality_placement(
    const CoverageModel& model, const traffic::PassingTraffic& passing,
    std::size_t k) {
  k = checked_budget(model, k, "max_cardinality_placement");
  check_passing(model, passing, "max_cardinality_placement");
  return top_k_by(model, k, [&](graph::NodeId v) {
    return static_cast<double>(passing.flows[v]);
  });
}

PlacementResult max_vehicles_placement(
    const CoverageModel& model, const traffic::PassingTraffic& passing,
    std::size_t k) {
  k = checked_budget(model, k, "max_vehicles_placement");
  check_passing(model, passing, "max_vehicles_placement");
  return top_k_by(model, k,
                  [&](graph::NodeId v) { return passing.vehicles[v]; });
}

PlacementResult max_customers_placement(const CoverageModel& model,
                                        std::size_t k) {
  k = checked_budget(model, k, "max_customers_placement");
  PlacementState empty(model);
  return top_k_by(model, k, [&](graph::NodeId v) {
    return empty.uncovered_gain(v);  // singleton gain: every flow is uncovered
  });
}

PlacementResult random_placement(const CoverageModel& model, std::size_t k,
                                 util::Rng& rng) {
  k = checked_budget(model, k, "random_placement");
  if (model.shop() == graph::kInvalidNode) {
    throw std::invalid_argument("random_placement: needs a single-shop problem");
  }
  const geo::BBox square = geo::BBox::centered_square(
      model.network().position(model.shop()), model.utility().range());
  std::vector<graph::NodeId> pool;
  pool.reserve(model.num_nodes());
  for (graph::NodeId v = 0; v < model.num_nodes(); ++v) {
    if (square.contains(model.network().position(v))) pool.push_back(v);
  }
  if (pool.size() < k) {
    pool.resize(model.num_nodes());
    for (graph::NodeId v = 0; v < pool.size(); ++v) pool[v] = v;
  }
  Placement chosen;
  chosen.reserve(k);
  for (const std::size_t idx : rng.sample_without_replacement(pool.size(), k)) {
    chosen.push_back(pool[idx]);
  }
  // Kept in sampling order: every prefix is itself a uniform sample, which
  // the experiment runner exploits to sweep k in one pass.
  return {chosen, evaluate_placement(model, chosen)};
}

}  // namespace rap::core
