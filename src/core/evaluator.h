// Incremental placement evaluation.
//
// PlacementState tracks, per flow, the best (minimum) detour distance over
// the RAPs placed so far — by Theorem 1 and the redundant-advertisement
// argument, only that minimum matters. Adding a RAP and querying marginal
// gains are both O(reach of the node), which is what makes the greedy
// algorithms' k * |V| * |T| bound real.
//
// Gains are split the way Algorithm 2 needs them:
//   uncovered_gain(v)   — customers gained from flows currently contributing
//                         nothing (factor (i): cover new traffic);
//   improvement_gain(v) — extra customers from flows already contributing,
//                         via a smaller detour distance (factor (ii):
//                         overlaps among RAPs).
// gain_if_added(v) = uncovered_gain(v) + improvement_gain(v).
#pragma once

#include <span>
#include <vector>

#include "src/core/problem.h"

namespace rap::core {

/// True when the library was configured with the RAP_AUDIT CMake option.
/// Audit builds compile a hook call into PlacementState::add() so an
/// installed auditor (src/check/audit.h) can machine-check the state's
/// invariants after every mutation; regular builds contain no call site at
/// all, so the hook is provably zero-overhead when off (asserted by
/// tests/integration/audit_overhead_test.cpp).
#if defined(RAP_AUDIT) && RAP_AUDIT
inline constexpr bool kAuditCompiledIn = true;
#else
inline constexpr bool kAuditCompiledIn = false;
#endif

class PlacementState;

/// Hook invoked after every PlacementState::add() in RAP_AUDIT builds (the
/// runtime toggle: a null hook disables auditing). Registration is always
/// available so callers need no conditional compilation; without RAP_AUDIT
/// the hook is simply never invoked.
using PlacementAuditHook = void (*)(const PlacementState&);

/// Installs `hook` as the process-wide audit hook; returns the previous one
/// (so scoped installers can restore it). Thread-safe: the registration is a
/// single acq_rel atomic exchange — acquire/release publication the
/// compile-time lock analysis cannot model, documented as such in
/// DESIGN.md §15 (this subsystem deliberately has no mutex to annotate).
PlacementAuditHook set_placement_audit_hook(PlacementAuditHook hook) noexcept;

/// The currently installed audit hook, or nullptr.
[[nodiscard]] PlacementAuditHook placement_audit_hook() noexcept;

class PlacementState {
 public:
  explicit PlacementState(const CoverageModel& model);

  [[nodiscard]] const CoverageModel& model() const noexcept { return *model_; }

  /// Expected attracted customers under the current placement.
  [[nodiscard]] double value() const noexcept { return value_; }

  [[nodiscard]] const Placement& placement() const noexcept { return placed_; }
  [[nodiscard]] bool contains(graph::NodeId node) const;

  /// Marginal gain decomposition for adding a RAP at `node`.
  [[nodiscard]] double uncovered_gain(graph::NodeId node) const;
  [[nodiscard]] double improvement_gain(graph::NodeId node) const;
  [[nodiscard]] double gain_if_added(graph::NodeId node) const;

  /// Places a RAP at `node`. Placing at an already-used node is a no-op.
  void add(graph::NodeId node);

  /// Best detour per flow (kUnreachable when no placed RAP reaches it).
  [[nodiscard]] std::span<const double> best_detours() const noexcept {
    return best_detour_;
  }

  /// Current customer contribution per flow.
  [[nodiscard]] std::span<const double> contributions() const noexcept {
    return contribution_;
  }

 private:
  const CoverageModel* model_;
  Placement placed_;
  std::vector<bool> is_placed_;
  std::vector<double> best_detour_;    // per flow
  std::vector<double> contribution_;   // per flow, customers
  double value_ = 0.0;
};

/// One-shot evaluation of a placement (duplicates are tolerated).
[[nodiscard]] double evaluate_placement(const CoverageModel& model,
                                        std::span<const graph::NodeId> nodes);

/// Value after each prefix of `order`: index j holds the value of its first
/// j nodes, for j in [0, order.size()]. A greedy picks one node at a time,
/// so these are its values at every budget up to order.size(), bitwise:
/// the same PlacementState::add sequence as the greedy's own run.
[[nodiscard]] std::vector<double> prefix_values(
    const CoverageModel& model, std::span<const graph::NodeId> order);

}  // namespace rap::core
