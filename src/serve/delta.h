// Incremental updates and warm-start re-optimization (the serve hot path).
//
// A session mutates its flow set through three delta operations — add_flow,
// remove_flow, scale_flow — and re-places after each batch. Re-running the
// lazy greedy from scratch repeats the expensive part: the initial full
// gain scan over every intersection. The warm start skips it by seeding
// core's CELF loop (core::run_celf, src/core/lazy_greedy.h) with *audited
// upper bounds* on the round-0 gains:
//
//   seed[v] = stored round-0 gain of v  (exact after any full run)
//           + Σ per-delta gain-increase bounds applied since
//           + a small fp slack
//
// For the paper's monotone utilities the objective is monotone submodular,
// so every marginal gain of v is ≤ its round-0 gain, which is ≤ seed[v]:
// the seeds are valid CELF upper bounds and the warm run selects EXACTLY
// the placement of lazy_marginal_greedy_placement (equal gains still break
// towards the lowest node id), with the value bit-identical because the
// PlacementState::add sequence is identical.
//
// The bound is *audited*, not trusted: the loop checks every re-evaluated
// seeded gain against its seed. A fresh gain above seed + slack means the
// stored bounds were wrong (a delta was not accounted, or the utility is
// not monotone) — this file then discards the warm state and falls back to
// a full from-scratch run, so a violated assumption costs time, never
// correctness. Fallbacks are counted ("serve.warm_start.fallbacks"). The
// slack, the fallback and the warm-state refresh are all that is
// serve-specific; the selection loop itself is core's.
//
// Per-delta gain-increase bounds (gain_increase_bound):
//   add_flow f        — a new flow can raise a round-0 gain by at most its
//                       zero-detour customers, f(0, alpha) * population;
//   scale_flow (c>1)  — volumes scale linearly, so at most
//                       (c-1) * f(0, alpha) * population of the old flow;
//   remove / scale-down — gains only shrink; bound 0.
// Bounds apply only to the nodes on the affected flow's path; everywhere
// else gains cannot increase.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/core/problem.h"
#include "src/traffic/flow.h"
#include "src/traffic/utility.h"

namespace rap::serve {

/// One flow-set mutation.
struct DeltaOp {
  enum class Kind { kAddFlow, kRemoveFlow, kScaleFlow };
  Kind kind = Kind::kAddFlow;
  traffic::TrafficFlow flow;  ///< kAddFlow: the flow to append
  std::size_t index = 0;      ///< kRemoveFlow/kScaleFlow: flow position
  double factor = 1.0;        ///< kScaleFlow: daily_vehicles multiplier
};

/// Warm-start state carried between placements of one session. `gains[v]`
/// is an upper bound on v's round-0 gain for the *current* flow set — exact
/// right after a full run, loosened by apply-delta bounds afterwards.
struct WarmState {
  bool valid = false;
  std::vector<double> gains;  ///< per node, size num_nodes when valid
};

/// Raises `state.gains` on the nodes of `op`'s affected path by the
/// documented gain-increase bound. `flows_before` is the flow set the delta
/// is applied to (kRemoveFlow/kScaleFlow index into it). No-op when the
/// state is invalid.
void apply_delta_bound(WarmState& state, const DeltaOp& op,
                       const std::vector<traffic::TrafficFlow>& flows_before,
                       const traffic::UtilityFunction& utility);

/// Thrown when a request's deadline expires inside the optimizer. The
/// server maps it to error code "deadline_exceeded".
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

using Deadline = std::optional<std::chrono::steady_clock::time_point>;

struct WarmStartResult {
  core::PlacementResult placement;
  bool reused = false;     ///< warm seeds were available and used
  bool fell_back = false;  ///< seed bound violated; re-ran from scratch
  std::size_t gain_evaluations = 0;
};

/// Lazy greedy placement seeded from `warm` when valid, full scan otherwise.
/// Bit-identical to core::lazy_marginal_greedy_placement(model, k) in both
/// placement and value, warm or cold (the fallback guarantees this even
/// under a violated bound). On success `warm` becomes the warm state for
/// the model's current flow set (exact round-0 gains where re-evaluated,
/// prior bounds elsewhere). Budget contract: core/k_policy.h. Throws
/// DeadlineExceeded when `deadline` passes mid-run, leaving `warm` as it
/// was.
[[nodiscard]] WarmStartResult warm_start_marginal_greedy(
    const core::CoverageModel& model, std::size_t k, WarmState& warm,
    Deadline deadline = {});

}  // namespace rap::serve
