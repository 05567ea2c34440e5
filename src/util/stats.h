// Small statistics toolkit used by the evaluation harness: streaming
// mean/variance (Welford), summaries with confidence intervals, and
// percentile helpers.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace rap::util {

/// Streaming accumulator for mean and variance (Welford's algorithm).
/// Numerically stable for long experiment runs.
class RunningStats {
 public:
  void add(double value) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// Mean of the observed samples; 0 when empty.
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean; 0 with fewer than two samples.
  [[nodiscard]] double stderr_mean() const noexcept;
  /// Smallest observed sample; +infinity when empty (the identity of min,
  /// so merge() and comparisons work without a count() guard).
  [[nodiscard]] double min() const noexcept { return min_; }
  /// Largest observed sample; -infinity when empty.
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Merges another accumulator (parallel-combine rule).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Point summary of a sample set.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double stderr_mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Half-width of the ~95% normal-approximation confidence interval.
  double ci95_halfwidth = 0.0;
};

/// Linear-interpolated percentile, q in [0, 100]. Throws on empty input or
/// out-of-range q. The input need not be sorted (a sorted copy is made).
[[nodiscard]] double percentile(std::span<const double> samples, double q);

/// Same as percentile() but requires `sorted` to be ascending already and
/// makes no copy — for repeated queries over one sample set (e.g. the
/// telemetry histogram exporter's p50/p95/p99). Unsorted input gives an
/// unspecified (but in-range) value; validation stays on q and emptiness.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double q);

}  // namespace rap::util
