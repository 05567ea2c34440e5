// Differential checks: pairwise agreement between independent
// implementations of the same placement semantics (DESIGN.md §9).
//
// Given a Scenario, run_differential_checks() asserts, among others:
//   * the lazy CELF greedy selects bit-identically to its eager twin
//     (placements AND values), zero-gain padding included — monotone
//     families only, since CELF laziness assumes submodularity;
//   * serial (1 thread) and parallel (DiffOptions::parallel_threads)
//     runs of every scanning greedy are bit-identical — all families;
//   * the composite greedy matches an independent re-implementation of
//     Algorithm 2's step rule built on the brute-force oracle;
//   * evaluate_placement agrees with oracle_evaluate on greedy outputs and
//     random placements — monotone families (see check/oracle.h for why
//     adversarial utilities legitimately differ);
//   * gain decomposition: gain_if_added == uncovered + improvement
//     (equality when monotone, >= for adversarial utilities, whose
//     improvement term may be negative — the guarded branch);
//   * the k <= 4 exhaustive path equals the oracle's plain enumeration and
//     the greedy family clears its proven approximation ratios against it;
//   * every final PlacementState passes the invariant audit (check/audit.h).
//
// A failing check produces a DiffFailure naming the check and the observed
// values; fuzz_one() additionally attaches the scenario's JSON reproducer
// so `seed + dump` is a complete bug report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/scenario.h"

namespace rap::check {

struct DiffOptions {
  /// Thread count for the parallel leg of serial-vs-parallel checks.
  std::size_t parallel_threads = 4;
};

struct DiffFailure {
  std::string check;   ///< stable check name, e.g. "lazy_vs_eager_naive_marginal"
  std::string detail;  ///< observed values, human-readable
};

struct DiffReport {
  std::uint64_t seed = 0;
  std::size_t checks_run = 0;
  std::vector<DiffFailure> failures;
  /// Scenario reproducer JSON; filled by fuzz_one() when a check fails.
  std::string reproducer_json;
  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// Runs every applicable differential check on the scenario.
[[nodiscard]] DiffReport run_differential_checks(const Scenario& scenario,
                                                 const DiffOptions& options = {});

/// generate_scenario(seed) + run_differential_checks, attaching the JSON
/// reproducer on failure.
[[nodiscard]] DiffReport fuzz_one(std::uint64_t seed,
                                  const DiffOptions& options = {});

}  // namespace rap::check
