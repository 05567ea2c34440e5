// Experiment configuration mirroring Section V: which algorithms, which
// utility function, threshold D, shop-location class, k sweep, repetitions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/classify.h"
#include "src/traffic/utility.h"
#include "src/util/stats.h"

namespace rap::eval {

enum class AlgorithmId : std::uint8_t {
  kGreedyCoverage,    ///< Algorithm 1
  kCompositeGreedy,   ///< Algorithm 2
  kNaiveGreedy,       ///< unbounded marginal-gain strawman (ablation)
  kMaxCardinality,
  kMaxVehicles,
  kMaxCustomers,
  kRandom,
  kTwoStageCorners,   ///< Algorithm 3 (Manhattan scenario only)
  kTwoStageMidpoints, ///< Algorithm 4 (Manhattan scenario only)
};

[[nodiscard]] const char* to_string(AlgorithmId id) noexcept;

/// The paper's six general-scenario algorithms, in presentation order.
/// Built with push_back: GCC 12's -Werror=maybe-uninitialized misfires on
/// the initializer_list backing array when the braced default is inlined
/// at -O3.
[[nodiscard]] inline std::vector<AlgorithmId> default_algorithms() {
  std::vector<AlgorithmId> out;
  out.reserve(6);
  out.push_back(AlgorithmId::kGreedyCoverage);
  out.push_back(AlgorithmId::kCompositeGreedy);
  out.push_back(AlgorithmId::kMaxCardinality);
  out.push_back(AlgorithmId::kMaxVehicles);
  out.push_back(AlgorithmId::kMaxCustomers);
  out.push_back(AlgorithmId::kRandom);
  return out;
}

struct ExperimentConfig {
  std::string name;                  ///< e.g. "fig10a-threshold"
  std::vector<std::size_t> ks{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  traffic::UtilityKind utility = traffic::UtilityKind::kThreshold;
  double range = 20'000.0;           ///< the threshold D, feet
  trace::LocationClass shop_class = trace::LocationClass::kCity;
  std::size_t repetitions = 100;     ///< paper uses 1000; benches default lower
  std::uint64_t seed = 1;
  /// false: general scenario (fixed paths); true: Manhattan scenario
  /// (flexible routing + two-stage algorithms become available).
  bool manhattan_scenario = false;
  /// Worker threads for the repetition loop; 1 = serial, 0 = the ambient
  /// util::ParallelConfig (RAP_THREADS env var, else hardware concurrency).
  /// Results are bit-identical for any thread count (repetitions are
  /// RNG-independent and accumulated in order; telemetry merges in
  /// repetition order). Recorded as the `parallel.threads` gauge in the
  /// run's telemetry.
  std::size_t threads = 1;
  std::vector<AlgorithmId> algorithms = default_algorithms();
};

/// Mean/spread of attracted customers for one algorithm across the k sweep.
struct SeriesResult {
  AlgorithmId algorithm{};
  std::vector<util::Summary> by_k;  ///< aligned with config.ks
};

struct ExperimentResult {
  ExperimentConfig config;
  std::vector<SeriesResult> series;  ///< aligned with config.algorithms
};

}  // namespace rap::eval
