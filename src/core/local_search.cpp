#include "src/core/local_search.h"

#include <algorithm>

#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/obs/telemetry.h"

namespace rap::core {
namespace {

// A swap must beat the incumbent by more than this to be taken (guards
// against cycling on floating-point noise).
constexpr double kMinImprovement = 1e-9;

// Deduplicated copy, order preserved.
Placement dedupe(const CoverageModel& model, const Placement& nodes) {
  std::vector<bool> seen(model.num_nodes(), false);
  Placement out;
  for (const graph::NodeId v : nodes) {
    model.network().check_node(v);
    if (!seen[v]) {
      seen[v] = true;
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace

LocalSearchResult local_search_improve(const CoverageModel& model,
                                       const Placement& initial,
                                       const LocalSearchOptions& options) {
  const obs::Span span("local_search");
  std::uint64_t candidate_evaluations = 0;
  Placement current = dedupe(model, initial);
  double current_value = evaluate_placement(model, current);

  LocalSearchResult result;
  bool converged = false;
  const auto n = static_cast<graph::NodeId>(model.num_nodes());
  for (result.swaps_performed = 0; result.swaps_performed < options.max_swaps;
       ++result.swaps_performed) {
    double best_value = current_value;
    std::size_t best_out = current.size();
    graph::NodeId best_in = graph::kInvalidNode;

    std::vector<bool> placed(model.num_nodes(), false);
    for (const graph::NodeId v : current) placed[v] = true;

    for (std::size_t out = 0; out < current.size(); ++out) {
      // State with `out` removed: rebuilt once per removal, then every
      // candidate insertion is a marginal-gain query.
      PlacementState without(model);
      for (std::size_t i = 0; i < current.size(); ++i) {
        if (i != out) without.add(current[i]);
      }
      for (graph::NodeId v = 0; v < n; ++v) {
        if (placed[v]) continue;
        ++candidate_evaluations;
        const double value = without.value() + without.gain_if_added(v);
        if (value > best_value + kMinImprovement) {
          best_value = value;
          best_out = out;
          best_in = v;
        }
      }
    }

    if (best_in == graph::kInvalidNode) {
      converged = true;
      break;
    }
    current[best_out] = best_in;
    current_value = best_value;
  }
  result.placement = {std::move(current), current_value};
  result.converged = converged;
  if (obs::ambient() != nullptr) {
    obs::add_counter("local_search.swaps", result.swaps_performed);
    obs::add_counter("local_search.candidate_evaluations",
                     candidate_evaluations);
  }
  return result;
}

LocalSearchResult greedy_with_local_search(const CoverageModel& model,
                                           std::size_t k,
                                           const LocalSearchOptions& options) {
  const PlacementResult greedy = composite_greedy_placement(model, k);
  LocalSearchResult result = local_search_improve(model, greedy.nodes, options);
  // Defensive: local search is value-monotone by construction, but keep the
  // guarantee explicit.
  if (result.placement.customers < greedy.customers) {
    result.placement = greedy;
  }
  return result;
}

}  // namespace rap::core
