#include "src/core/evaluator.h"

#include <atomic>

namespace rap::core {
namespace {

std::atomic<PlacementAuditHook> g_audit_hook{nullptr};

}  // namespace

PlacementAuditHook set_placement_audit_hook(PlacementAuditHook hook) noexcept {
  return g_audit_hook.exchange(hook, std::memory_order_acq_rel);
}

PlacementAuditHook placement_audit_hook() noexcept {
  return g_audit_hook.load(std::memory_order_acquire);
}

PlacementState::PlacementState(const CoverageModel& model)
    : model_(&model),
      is_placed_(model.num_nodes(), false),
      best_detour_(model.num_flows(), graph::kUnreachable),
      contribution_(model.num_flows(), 0.0) {}

bool PlacementState::contains(graph::NodeId node) const {
  model_->network().check_node(node);
  return is_placed_[node];
}

double PlacementState::uncovered_gain(graph::NodeId node) const {
  double gain = 0.0;
  for (const traffic::NodeIncidence& inc : model_->reach_at(node)) {
    if (contribution_[inc.flow] > 0.0) continue;
    gain += model_->customers(inc.flow, inc.detour);
  }
  return gain;
}

double PlacementState::improvement_gain(graph::NodeId node) const {
  double gain = 0.0;
  for (const traffic::NodeIncidence& inc : model_->reach_at(node)) {
    if (contribution_[inc.flow] <= 0.0) continue;
    if (inc.detour >= best_detour_[inc.flow]) continue;
    gain += model_->customers(inc.flow, inc.detour) - contribution_[inc.flow];
  }
  return gain;
}

double PlacementState::gain_if_added(graph::NodeId node) const {
  double gain = 0.0;
  for (const traffic::NodeIncidence& inc : model_->reach_at(node)) {
    if (inc.detour >= best_detour_[inc.flow]) continue;
    const double candidate = model_->customers(inc.flow, inc.detour);
    if (candidate > contribution_[inc.flow]) {
      gain += candidate - contribution_[inc.flow];
    }
  }
  return gain;
}

void PlacementState::add(graph::NodeId node) {
  model_->network().check_node(node);
  if (is_placed_[node]) return;
  is_placed_[node] = true;
  placed_.push_back(node);
  for (const traffic::NodeIncidence& inc : model_->reach_at(node)) {
    if (inc.detour < best_detour_[inc.flow]) {
      best_detour_[inc.flow] = inc.detour;
      const double candidate = model_->customers(inc.flow, inc.detour);
      // Non-increasing utility means a smaller detour can only help, but
      // guard anyway so the invariant contribution == f(best_detour) holds
      // even for adversarial custom utilities.
      if (candidate > contribution_[inc.flow]) {
        value_ += candidate - contribution_[inc.flow];
        contribution_[inc.flow] = candidate;
      }
    }
  }
#if defined(RAP_AUDIT) && RAP_AUDIT
  if (const PlacementAuditHook hook = placement_audit_hook(); hook != nullptr) {
    hook(*this);
  }
#endif
}

double evaluate_placement(const CoverageModel& model,
                          std::span<const graph::NodeId> nodes) {
  PlacementState state(model);
  for (const graph::NodeId node : nodes) state.add(node);
  return state.value();
}

std::vector<double> prefix_values(const CoverageModel& model,
                                  std::span<const graph::NodeId> order) {
  PlacementState state(model);
  std::vector<double> values;
  values.reserve(order.size() + 1);
  values.push_back(state.value());
  for (const graph::NodeId node : order) {
    state.add(node);
    values.push_back(state.value());
  }
  return values;
}

}  // namespace rap::core
