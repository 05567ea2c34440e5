// A serve session: one loaded scenario plus the mutable flow state built on
// top of it by delta operations.
//
// The session never mutates its (shared, possibly cached) ServeScenario.
// It reads the scenario's base flows until its first delta, which copies
// them; every delta then rebuilds a private PlacementProblem over its own
// flows — cheaply, because the scenario's shop detour
// engine (two Dijkstras) is shared via SharedDetours and only the coverage
// table is rebuilt. A delta frees the previous private table before it
// prices the new one, so a session holds at most one coverage table of its
// own (the scenario's base table is shared, never copied). Between
// placements the session carries the warm-start state (src/serve/delta.h):
// the first `place` runs cold and records exact round-0 gains; every delta
// loosens them by an audited upper bound; later `place` calls re-optimize
// warm and fall back to a full run only when the bound check fails. A place_batch request is one place at its largest
// budget (src/serve/server.h), so it moves these counters as one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/core/problem.h"
#include "src/serve/delta.h"
#include "src/serve/scenario_cache.h"

namespace rap::serve {

class Session {
 public:
  struct Stats {
    std::uint64_t places = 0;
    std::uint64_t deltas = 0;
    std::uint64_t warm_attempts = 0;  ///< places entered with valid warm state
    std::uint64_t warm_reused = 0;    ///< completed on the warm path
    std::uint64_t warm_fallbacks = 0; ///< bound violations -> full re-run
  };

  explicit Session(std::shared_ptr<const ServeScenario> scenario);

  [[nodiscard]] const ServeScenario& scenario() const noexcept {
    return *scenario_;
  }
  /// The active coverage model: the scenario's base problem until the first
  /// delta, the private rebuilt problem afterwards.
  [[nodiscard]] const core::CoverageModel& model() const noexcept;
  /// The current flow set: the scenario's own base flows (shared, not
  /// copied) until the first delta, the session's private copy afterwards.
  [[nodiscard]] const std::vector<traffic::TrafficFlow>& flows()
      const noexcept {
    return flows_.has_value() ? *flows_ : scenario_->flows;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Applies one delta: validates it against the current flow state (throws
  /// std::invalid_argument / std::out_of_range on a bad op, including a
  /// scale_flow whose product is not finite), loosens the warm bounds, and
  /// rebuilds the private problem. Every check runs before any mutation, so
  /// a rejected op leaves flows() and model() unchanged. After the checks
  /// only std::bad_alloc can escape (the old private table is already
  /// freed by then); it returns the session to the scenario's base state —
  /// no private flows or problem, warm state invalid — before it is
  /// rethrown, so flows() and model() never disagree.
  void apply_delta(const DeltaOp& op);

  /// Warm-start lazy greedy placement — bit-identical to
  /// core::lazy_marginal_greedy_placement on the current model. Updates the
  /// session's warm state.
  [[nodiscard]] WarmStartResult place(std::size_t k, Deadline deadline = {});

  /// Objective value of an explicit placement on the current model. Throws
  /// std::out_of_range on an invalid node id.
  [[nodiscard]] double evaluate(std::span<const graph::NodeId> nodes) const;

 private:
  std::shared_ptr<const ServeScenario> scenario_;
  /// Post-delta flow set; empty until the first delta copies the base flows.
  std::optional<std::vector<traffic::TrafficFlow>> flows_;
  /// Private problem over flows_; null until the first delta (the
  /// scenario's own problem serves then).
  std::unique_ptr<core::PlacementProblem> delta_problem_;
  WarmState warm_;
  Stats stats_;
};

}  // namespace rap::serve
