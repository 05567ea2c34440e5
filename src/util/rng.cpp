#include "src/util/rng.h"

#include <bit>
#include <cmath>

namespace rap::util {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return std::rotl(x, k);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : state_) word = sm.next();
  // xoshiro256++ requires a nonzero state; splitmix64 makes an all-zero
  // expansion astronomically unlikely, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::next_below: bound must be > 0");
  // Lemire-style rejection sampling: unbiased for every bound.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::next_double: lo > hi");
  return lo + (hi - lo) * next_double();
}

double Rng::next_gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * next_double() - 1.0;
    v = 2.0 * next_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::next_gaussian(double mean, double stddev) {
  if (stddev < 0.0) {
    throw std::invalid_argument("Rng::next_gaussian: stddev must be >= 0");
  }
  return mean + stddev * next_gaussian();
}

bool Rng::next_bool(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("Rng::next_bool: p must be in [0, 1]");
  }
  return next_double() < p;
}

double Rng::next_exponential(double rate) {
  if (rate <= 0.0) {
    throw std::invalid_argument("Rng::next_exponential: rate must be > 0");
  }
  // 1 - next_double() is in (0, 1], so the log is finite.
  return -std::log(1.0 - next_double()) / rate;
}

std::uint64_t Rng::next_poisson(double mean) {
  if (mean < 0.0) {
    throw std::invalid_argument("Rng::next_poisson: mean must be >= 0");
  }
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction; adequate for
    // workload-volume synthesis at these magnitudes.
    const double sample = next_gaussian(mean, std::sqrt(mean));
    return sample <= 0.0 ? 0 : static_cast<std::uint64_t>(sample + 0.5);
  }
  const double limit = std::exp(-mean);
  std::uint64_t count = 0;
  double product = next_double();
  while (product > limit) {
    ++count;
    product *= next_double();
  }
  return count;
}

std::size_t Rng::next_weighted(std::span<const double> weights) {
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      throw std::invalid_argument("Rng::next_weighted: weights must be finite and >= 0");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("Rng::next_weighted: total weight must be > 0");
  }
  double target = next_double() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t population,
                                                         std::size_t count) {
  if (count > population) {
    throw std::invalid_argument(
        "Rng::sample_without_replacement: count exceeds population");
  }
  // Partial Fisher-Yates over an index vector; O(population) setup which is
  // fine at the problem sizes used here (intersections per city <= ~10^4).
  std::vector<std::size_t> indices(population);
  for (std::size_t i = 0; i < population; ++i) indices[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + next_below(population - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(count);
  return indices;
}

Rng Rng::fork(std::uint64_t stream) const noexcept {
  // Mix the current state with the stream id through splitmix64 so forks are
  // independent even for adjacent stream ids.
  SplitMix64 sm(state_[0] ^ rotl(state_[2], 31) ^ (stream * 0x9e3779b97f4a7c15ULL));
  return Rng(sm.next());
}

}  // namespace rap::util
