#include "src/check/audit.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/graph/dijkstra.h"  // graph::kUnreachable
#include "src/obs/telemetry.h"

namespace rap::check {
namespace {

std::atomic<std::uint64_t> g_hook_audits{0};
std::atomic<std::uint64_t> g_hook_violations{0};
// Options for the installed hook. A single auditor may be active at a time
// (enforced by ScopedAuditor), so a plain global is enough.
AuditOptions g_hook_options;
std::atomic<bool> g_auditor_active{false};

std::string format_double(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

void audit_hook(const core::PlacementState& state) {
  g_hook_audits.fetch_add(1, std::memory_order_relaxed);
  obs::add_counter("audit.states_checked");
  const AuditResult result = audit_state(state, g_hook_options);
  if (result.ok()) return;
  g_hook_violations.fetch_add(1, std::memory_order_relaxed);
  obs::add_counter("audit.violations");
  std::string message = "placement audit failed:";
  for (const std::string& violation : result.violations) {
    message += "\n  " + violation;
  }
  throw std::logic_error(message);
}

}  // namespace

AuditResult audit_state(const core::PlacementState& state,
                        const AuditOptions& options) {
  AuditResult result;
  const core::CoverageModel& model = state.model();
  const core::Placement& placed = state.placement();
  const std::span<const double> best = state.best_detours();
  const std::span<const double> contribution = state.contributions();
  const std::size_t num_flows = model.num_flows();

  // (A5) placement integrity: valid, distinct ids.
  std::vector<bool> seen(model.num_nodes(), false);
  for (const graph::NodeId node : placed) {
    if (node >= model.num_nodes()) {
      result.violations.push_back("A5: placed node " + std::to_string(node) +
                                  " out of range");
      return result;  // everything below indexes by node id
    }
    if (seen[node]) {
      result.violations.push_back("A5: node " + std::to_string(node) +
                                  " placed twice");
    }
    seen[node] = true;
  }

  // From-scratch recomputation: (A2) minimum detours and (A4) the replay of
  // add()'s documented guarded running max, in insertion order.
  std::vector<double> min_detour(num_flows, graph::kUnreachable);
  std::vector<double> replay_best(num_flows, graph::kUnreachable);
  std::vector<double> replay_contribution(num_flows, 0.0);
  for (const graph::NodeId node : placed) {
    for (const traffic::NodeIncidence& inc : model.reach_at(node)) {
      if (inc.detour < min_detour[inc.flow]) min_detour[inc.flow] = inc.detour;
      if (inc.detour < replay_best[inc.flow]) {
        replay_best[inc.flow] = inc.detour;
        const double candidate = model.customers(inc.flow, inc.detour);
        if (candidate > replay_contribution[inc.flow]) {
          replay_contribution[inc.flow] = candidate;
        }
      }
    }
  }

  double contribution_sum = 0.0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    contribution_sum += contribution[f];
    if (best[f] != min_detour[f]) {
      result.violations.push_back(
          "A2: flow " + std::to_string(f) + " best_detour " +
          format_double(best[f]) + " != recomputed min " +
          format_double(min_detour[f]));
    }
    if (contribution[f] != replay_contribution[f]) {
      result.violations.push_back(
          "A4: flow " + std::to_string(f) + " contribution " +
          format_double(contribution[f]) + " != add() replay " +
          format_double(replay_contribution[f]));
    }
    if (options.monotone_utility) {
      const double expected =
          std::isinf(min_detour[f])
              ? 0.0
              : model.customers(static_cast<traffic::FlowIndex>(f),
                                min_detour[f]);
      if (contribution[f] != expected) {
        result.violations.push_back(
            "A3: flow " + std::to_string(f) + " contribution " +
            format_double(contribution[f]) + " != customers(best_detour) " +
            format_double(expected));
      }
    }
  }

  const double value = state.value();
  const double scale = std::max({1.0, std::abs(value), std::abs(contribution_sum)});
  if (std::abs(value - contribution_sum) > kValueTolerance * scale) {
    result.violations.push_back("A1: value " + format_double(value) +
                                " != sum of contributions " +
                                format_double(contribution_sum));
  }
  return result;
}

std::uint64_t hook_audits_run() noexcept {
  return g_hook_audits.load(std::memory_order_relaxed);
}

std::uint64_t hook_violations_seen() noexcept {
  return g_hook_violations.load(std::memory_order_relaxed);
}

void reset_hook_counters() noexcept {
  g_hook_audits.store(0, std::memory_order_relaxed);
  g_hook_violations.store(0, std::memory_order_relaxed);
}

ScopedAuditor::ScopedAuditor(AuditOptions options) {
  if (g_auditor_active.exchange(true, std::memory_order_acq_rel)) {
    throw std::logic_error("ScopedAuditor: an auditor is already installed");
  }
  g_hook_options = options;
  previous_ = core::set_placement_audit_hook(&audit_hook);
}

ScopedAuditor::~ScopedAuditor() {
  core::set_placement_audit_hook(previous_);
  g_auditor_active.store(false, std::memory_order_release);
}

}  // namespace rap::check
