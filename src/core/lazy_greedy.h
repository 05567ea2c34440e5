// Lazy-evaluation (CELF-style) greedy placement.
//
// The attracted-customers objective is monotone submodular (it is a
// facility-location function: a per-flow maximum over placed RAPs), so the
// total marginal gain of any intersection can only shrink as RAPs are
// placed. A max-heap of cached gains therefore needs to re-evaluate only
// the top entry, cutting the k |V| |T| greedy sweep to a small fraction of
// gain evaluations on real workloads (measured in bench/ablation_design).
//
// run_celf is the library's one CELF loop: lazy_marginal_greedy_placement
// runs it from a full first scan, serve::warm_start_marginal_greedy
// (src/serve/delta.h) from audited per-node seeds. Both select exactly the
// intersections of naive_marginal_greedy_placement — under the threshold
// utility also those of greedy_coverage_placement, whose uncovered gain is
// then the marginal gain. Algorithm 2's candidate (ii) improvement gain is
// NOT monotone (a flow must first be covered before it can be improved),
// so the composite greedy has no lazy counterpart.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "src/core/composite_greedy.h"
#include "src/core/problem.h"

namespace rap::core {

/// Per-call work counts. When ambient telemetry is installed
/// (src/obs/telemetry.h) lazy_marginal_greedy_placement also accumulates
/// them on the registry as `lazy_greedy.gain_evaluations` /
/// `lazy_greedy.heap_pops` / `lazy_greedy.selections`; this struct is the
/// registry-free view for direct callers (benches, tests).
struct LazyGreedyStats {
  std::size_t gain_evaluations = 0;  ///< first scan plus re-evaluations
  std::size_t heap_pops = 0;
};

/// What one run_celf did.
struct CelfRun {
  PlacementResult placement;
  std::vector<double> selected_gains;  ///< gain of each selection, in order
  LazyGreedyStats stats;
  bool seed_violated = false;  ///< stopped early: a gain exceeded its seed
};

/// The CELF loop, over a budget already checked (core/k_policy.h). Ties break
/// to the lowest node id; `stop_when_no_gain` as in CompositeGreedyOptions.
/// Empty `seeds`: a full first scan prices every node. Otherwise one upper
/// bound per node on its round-0 gain stands in for the scan, and every
/// re-evaluation of a still-seeded node is audited against it. `round0`,
/// when non-null, gets the exact round-0 gain of each node priced in round
/// 0: every node after a full scan (it is resized to num_nodes), only the
/// re-evaluated ones when seeded (it must then hold num_nodes entries).
/// `on_step`, when set, runs before every heap pop; what it throws
/// propagates. Records no telemetry.
[[nodiscard]] CelfRun run_celf(const CoverageModel& model, std::size_t k,
                               bool stop_when_no_gain,
                               std::span<const double> seeds,
                               std::vector<double>* round0,
                               const std::function<void()>& on_step);

/// Same selection as naive_marginal_greedy_placement under the same options
/// (ties to lowest id; zero-gain padding when stop_when_no_gain is false) —
/// results are bit-identical, placements and values alike. Budget contract:
/// core/k_policy.h (k == 0 throws, k > num_nodes clamps).
[[nodiscard]] PlacementResult lazy_marginal_greedy_placement(
    const CoverageModel& model, std::size_t k, LazyGreedyStats* stats = nullptr,
    const CompositeGreedyOptions& options = {});

}  // namespace rap::core
