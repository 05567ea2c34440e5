// Differential fuzzing of the incremental update engine.
//
// One fuzz case: generate a random placement instance (check/scenario.h),
// open a serve Session on it, and replay a seed-derived random sequence of
// delta operations. After every round the session's warm-start placement
// and evaluation are compared against a from-scratch rebuild of the
// problem solved by core::lazy_marginal_greedy_placement — node lists must
// match exactly and objective values bit-for-bit (==, no tolerance), the
// same contract the core differential fuzzer enforces. Now and then a round
// also injects an op the session must reject (an overflowing scale factor,
// an added flow whose population overflows, or an out-of-range index),
// which must throw and leave the session's flows and model unchanged.
//
// Scenarios drawn with the adversarial (non-monotone) utility are skipped:
// warm-start CELF, like plain CELF, is only valid in the paper's monotone
// world (check/scenario.h documents the gate). The step family stays in —
// plateaus and jump discontinuities are exactly where stale-bound bugs
// would hide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace rap::serve {

struct DeltaFuzzOptions {
  std::size_t rounds = 6;        ///< delta+place rounds per case
  std::size_t ops_per_round = 3; ///< delta ops applied before each place
};

struct DeltaFuzzReport {
  std::uint64_t seed = 0;
  bool ok = true;
  bool skipped = false;       ///< non-monotone utility family drawn
  std::size_t rounds_run = 0;
  std::size_t deltas_applied = 0;
  std::size_t warm_reused = 0;
  std::size_t warm_fallbacks = 0;
  std::string message;        ///< failure description (empty when ok)
};

/// Runs one seeded fuzz case. Deterministic: the same seed always replays
/// the same scenario and delta sequence.
[[nodiscard]] DeltaFuzzReport fuzz_delta_one(std::uint64_t seed,
                                             const DeltaFuzzOptions& options = {});

}  // namespace rap::serve
