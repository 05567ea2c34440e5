#include "bench/e2e/stats.h"

#include <algorithm>

#include "src/util/rng.h"
#include "src/util/stats.h"

namespace rap::bench::e2e {

double percentile(std::span<const double> samples, double q) {
  return samples.empty() ? 0.0 : util::percentile(samples, q);
}

double supported_percentile(double samples) {
  for (const double q : {99.9, 99.0, 90.0}) {
    // Values beyond the q-th percentile: n * (100 - q) / 100. The epsilon
    // keeps n = 1000 at p99 (exactly ten beyond) on the qualifying side.
    if (samples * (100.0 - q) / 100.0 + 1e-9 >= 10.0) return q;
  }
  return 50.0;
}

double windowed_percentile(std::span<const double> samples, double q,
                           std::size_t window) {
  const std::size_t windows = window > 0 ? samples.size() / window : 0;
  if (windows < 3) return percentile(samples, q);
  std::vector<double> values;
  for (std::size_t w = 0; w < windows; ++w) {
    values.push_back(percentile(samples.subspan(w * window, window), q));
  }
  return percentile(values, 50.0);
}

double windowed_rate(std::span<const std::uint64_t> end_ns,
                     std::uint64_t start_ns, std::uint64_t window_ns) {
  if (end_ns.empty() || window_ns == 0) return 0.0;
  const std::uint64_t last = *std::max_element(end_ns.begin(), end_ns.end());
  if (last <= start_ns) return 0.0;
  const auto windows = static_cast<std::size_t>((last - start_ns) / window_ns);
  if (windows == 0) {
    return static_cast<double>(end_ns.size()) /
           (static_cast<double>(last - start_ns) / 1e9);
  }
  std::vector<double> counts(windows, 0.0);
  for (const std::uint64_t end : end_ns) {
    if (end < start_ns) continue;
    const auto w = static_cast<std::size_t>((end - start_ns) / window_ns);
    if (w < windows) counts[w] += 1.0;
  }
  return percentile(counts, 50.0) / (static_cast<double>(window_ns) / 1e9);
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(data, n=4, method="exclusive"), integer arithmetic
  // and all.
  const auto ld = static_cast<std::int64_t>(values.size());
  const std::int64_t m = ld + 1;
  double cuts[3] = {0.0, 0.0, 0.0};
  for (std::int64_t i = 1; i < 4; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    cuts[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   values[static_cast<std::size_t>(j)] *
                       static_cast<double>(delta)) /
                  4.0;
  }
  return {cuts[0], cuts[1], cuts[2]};
}

std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     std::uint64_t seed) {
  std::vector<double> offsets;
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0)) return offsets;
  offsets.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  util::Rng rng(seed);
  for (double t = rng.next_exponential(rate_per_s); t < duration_s;
       t += rng.next_exponential(rate_per_s)) {
    offsets.push_back(t);
  }
  return offsets;
}

}  // namespace rap::bench::e2e
