#include "src/core/lazy_greedy.h"

#include <queue>

#include "src/core/evaluator.h"
#include "src/core/k_policy.h"
#include "src/obs/telemetry.h"

namespace rap::core {
namespace {

/// Stamp marking a heap entry as a seed (an upper bound, not a cached
/// evaluation). Never equal to a selection count: budgets clamp to
/// num_nodes < 2^32 - 1.
constexpr std::uint32_t kSeedStamp = 0xffffffffU;

}  // namespace

CelfRun run_celf(const CoverageModel& model, std::size_t k,
                 bool stop_when_no_gain, std::span<const double> seeds,
                 std::vector<double>* round0,
                 const std::function<void()>& on_step) {
  PlacementState state(model);
  CelfRun run;

  struct Entry {
    double gain;
    graph::NodeId node;
    std::uint32_t stamp;
  };
  // Ties must break to the lowest node id (matching the eager greedy), so
  // equal gains order by ascending id.
  const auto less = [](const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.node > b.node;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(less)> heap(less);

  const auto n = static_cast<graph::NodeId>(model.num_nodes());
  if (seeds.empty()) {
    if (round0 != nullptr) round0->resize(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      ++run.stats.gain_evaluations;
      const double gain = state.gain_if_added(v);
      if (round0 != nullptr) (*round0)[v] = gain;
      heap.push({gain, v, 0});
    }
  } else {
    for (graph::NodeId v = 0; v < n; ++v) heap.push({seeds[v], v, kSeedStamp});
  }

  std::uint32_t selections = 0;
  while (state.placement().size() < k && !heap.empty()) {
    if (on_step) on_step();
    const Entry top = heap.top();
    heap.pop();
    ++run.stats.heap_pops;
    if (top.stamp != selections) {
      ++run.stats.gain_evaluations;
      const double gain = state.gain_if_added(top.node);
      // The audited bound: a marginal gain never exceeds the node's round-0
      // gain, so it cannot exceed a valid seed either. A violated seed makes
      // the whole heap order suspect; the caller decides how to recover.
      if (top.stamp == kSeedStamp && gain > top.gain) {
        run.seed_violated = true;
        return run;
      }
      if (selections == 0 && round0 != nullptr) (*round0)[top.node] = gain;
      // Under stop_when_no_gain a zero-gain candidate can never be selected,
      // so dropping it here is safe. Without it the eager greedy pads the
      // placement with zero-gain intersections (lowest id first), so the
      // entry must stay in the heap to stay eligible — ascending-id ordering
      // of equal gains reproduces the eager tie-break.
      if (gain > 0.0 || !stop_when_no_gain) {
        heap.push({gain, top.node, selections});
      }
      continue;
    }
    if (top.gain <= 0.0 && stop_when_no_gain) break;
    state.add(top.node);
    ++selections;
    run.selected_gains.push_back(top.gain);
  }
  run.placement = {state.placement(), state.value()};
  return run;
}

PlacementResult lazy_marginal_greedy_placement(
    const CoverageModel& model, std::size_t k, LazyGreedyStats* stats,
    const CompositeGreedyOptions& options) {
  k = checked_budget(model, k, "lazy greedy placement");
  const obs::Span span("lazy_greedy");
  CelfRun run = run_celf(model, k, options.stop_when_no_gain, {}, nullptr, {});
  for (const double gain : run.selected_gains) {
    obs::observe("placement.selected_gain", gain);
  }
  // The registry is the canonical sink; the LazyGreedyStats out-param is a
  // per-call view of the same counts for callers without telemetry.
  if (obs::ambient() != nullptr) {
    obs::add_counter("lazy_greedy.gain_evaluations",
                     run.stats.gain_evaluations);
    obs::add_counter("lazy_greedy.heap_pops", run.stats.heap_pops);
    obs::add_counter("lazy_greedy.selections", run.selected_gains.size());
  }
  if (stats != nullptr) *stats = run.stats;
  return std::move(run.placement);
}

}  // namespace rap::core
