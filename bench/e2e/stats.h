// Sample statistics of the end-to-end benchmark: the tail-percentile rule,
// Python-compatible quartiles and the seeded open-loop arrival schedule.
// Pure functions, unit-tested in e2e_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rap::bench::e2e {

/// Linear-interpolated percentile (q in [0, 100]) of unsorted samples; 0
/// for an empty sample.
[[nodiscard]] double percentile(std::span<const double> samples, double q);

/// The tail percentile a sample of `samples` values supports: the highest
/// of p99.9, p99 and p90 with at least ten values beyond it, or the median
/// (50) when the sample is too small for any of them (under 100 values).
[[nodiscard]] double supported_percentile(double samples);

/// Window of reported tails: the smallest sample with ten values beyond its
/// p99.
inline constexpr std::size_t kTailWindow = 1'000;

/// The q-th percentile of a sample in time order, robust to one stalled
/// moment: with at least three windows of `window` consecutive samples, the
/// median over the windows of each window's q-th percentile; otherwise the
/// whole sample's.
[[nodiscard]] double windowed_percentile(std::span<const double> samples,
                                         double q, std::size_t window);

/// Median over consecutive `window_ns` windows from `start_ns` of the
/// completions per second in each (`end_ns` are completion times); only
/// whole windows up to the last completion count. A run shorter than one
/// window reports its completions over its whole length.
[[nodiscard]] double windowed_rate(std::span<const std::uint64_t> end_ns,
                                   std::uint64_t start_ns,
                                   std::uint64_t window_ns);

/// First, second and third quartile exactly as Python's
/// statistics.quantiles(values, n=4) ("exclusive" method) computes them.
/// Needs at least two values; a single value is returned three times.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// Send offsets in seconds of a Poisson process at `rate_per_s` over
/// [0, duration_s), drawn from `seed` alone: the same arguments give the
/// same schedule on every run.
[[nodiscard]] std::vector<double> poisson_schedule(double rate_per_s,
                                                   double duration_s,
                                                   std::uint64_t seed);

}  // namespace rap::bench::e2e
