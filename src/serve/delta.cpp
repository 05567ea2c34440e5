#include "src/serve/delta.h"

#include <cmath>
#include <functional>

#include "src/core/k_policy.h"
#include "src/core/lazy_greedy.h"

namespace rap::serve {
namespace {

/// Relative inflation applied to every seed. Stored gains are exact for the
/// pre-delta model; recomputing them on the post-delta model can differ in
/// the last ulps, so the seeds get a margin far above fp noise (1e-9
/// relative vs ~1e-16) yet far below any real gain difference. A fresh gain
/// above the inflated seed is a genuine bound violation.
constexpr double kSeedSlack = 1e-9;

}  // namespace

void apply_delta_bound(WarmState& state, const DeltaOp& op,
                       const std::vector<traffic::TrafficFlow>& flows_before,
                       const traffic::UtilityFunction& utility) {
  if (!state.valid) return;
  double bound = 0.0;
  const std::vector<graph::NodeId>* path = nullptr;
  switch (op.kind) {
    case DeltaOp::Kind::kAddFlow:
      bound = utility.probability(0.0, op.flow.alpha) * op.flow.population();
      path = &op.flow.path;
      break;
    case DeltaOp::Kind::kRemoveFlow:
      return;  // gains can only shrink
    case DeltaOp::Kind::kScaleFlow: {
      if (op.factor <= 1.0) return;  // scale-down: gains can only shrink
      const traffic::TrafficFlow& flow = flows_before.at(op.index);
      bound = (op.factor - 1.0) * utility.probability(0.0, flow.alpha) *
              flow.population();
      path = &flow.path;
      break;
    }
  }
  for (const graph::NodeId node : *path) {
    if (node < state.gains.size()) state.gains[node] += bound;
  }
}

WarmStartResult warm_start_marginal_greedy(const core::CoverageModel& model,
                                           std::size_t k, WarmState& warm,
                                           Deadline deadline) {
  k = core::checked_budget(model, k, "serve warm-start placement");
  const std::function<void()> check_deadline = [&deadline] {
    if (deadline.has_value() &&
        std::chrono::steady_clock::now() > *deadline) {
      throw DeadlineExceeded("placement deadline exceeded");
    }
  };
  WarmStartResult out;
  std::vector<double> round0;
  core::CelfRun run;
  if (warm.valid && warm.gains.size() == model.num_nodes()) {
    std::vector<double> seeds(warm.gains.size());
    for (std::size_t v = 0; v < seeds.size(); ++v) {
      seeds[v] = warm.gains[v] + kSeedSlack * (std::fabs(warm.gains[v]) + 1.0);
    }
    round0 = warm.gains;  // refined where re-evaluated
    run = core::run_celf(model, k, true, seeds, &round0, check_deadline);
    out.reused = !run.seed_violated;
    out.fell_back = run.seed_violated;
  }
  if (!out.reused) {
    // No warm state, or the audited bound was violated (the warm state
    // lied): a full run, which also records exact warm gains.
    run = core::run_celf(model, k, true, {}, &round0, check_deadline);
  }
  out.placement = std::move(run.placement);
  out.gain_evaluations = run.stats.gain_evaluations;
  warm.valid = true;
  warm.gains = std::move(round0);
  return out;
}

}  // namespace rap::serve
