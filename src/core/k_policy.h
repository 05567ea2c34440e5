// The optimizer family's shared budget (`k`) contract.
//
// Every placement entry point — eager/lazy/naive/composite greedy,
// exhaustive search, the two-stage Manhattan algorithms and the four
// Section V-B baselines — validates its RAP budget through checked_budget():
//   * k == 0 throws std::invalid_argument (an empty budget is a caller bug,
//     not a degenerate instance);
//   * k > num_nodes clamps to num_nodes — no placement can use more RAPs
//     than there are intersections — records the clamped-away surplus on
//     the ambient telemetry gauge "placement.k_clamped", and bumps the
//     "placement.k_clamp_events" counter once per clamp (both no-ops
//     without an installed obs::TelemetryScope). Entry points that compose
//     other entry points (e.g. the exact-bound tier driving a greedy
//     incumbent) clamp at the outermost layer, so the counter observes
//     exactly one event per top-level solve.
// Before this header each algorithm hand-rolled the k == 0 throw and
// silently looped past num_nodes; the shared helper makes the contract
// uniform and observable.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "src/core/problem.h"
#include "src/obs/telemetry.h"

namespace rap::core {

/// Validates and clamps a RAP budget per the contract above. `who` names the
/// calling entry point in the k == 0 exception message.
inline std::size_t checked_budget(const CoverageModel& model, std::size_t k,
                                  const char* who) {
  if (k == 0) {
    throw std::invalid_argument(std::string(who) + ": k must be > 0");
  }
  const std::size_t n = model.num_nodes();
  if (k > n) {
    obs::set_gauge("placement.k_clamped", static_cast<double>(k - n));
    obs::add_counter("placement.k_clamp_events");
    return n;
  }
  return k;
}

}  // namespace rap::core
