// Deterministic random number generation for reproducible experiments.
//
// All randomness in librap flows through rap::util::Rng, seeded explicitly.
// The engine is xoshiro256++ (Blackman & Vigna), seeded via splitmix64, so a
// single 64-bit seed yields a full 256-bit state and results are identical
// across platforms and standard-library implementations (unlike
// std::mt19937 + std::uniform_int_distribution, whose distributions are not
// specified bit-exactly).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace rap::util {

/// Expands a 64-bit seed into a stream of well-mixed 64-bit values.
/// Used for seeding and for deriving independent child seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ engine with convenience sampling methods.
///
/// Satisfies std::uniform_random_bit_generator so it can also be handed to
/// standard algorithms, though the member samplers below are preferred for
/// cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs from a single seed; any seed (including 0) is valid.
  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Raw 64 random bits.
  std::uint64_t operator()() noexcept { return next_u64(); }
  std::uint64_t next_u64() noexcept;

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t next_below(std::uint64_t bound);


  /// Uniform double in [0, 1) with 53 bits of randomness.
  double next_double() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double next_double(double lo, double hi);

  /// Standard normal via Marsaglia polar method.
  double next_gaussian() noexcept;

  /// Normal with the given mean and standard deviation (stddev >= 0).
  double next_gaussian(double mean, double stddev);

  /// Bernoulli trial with success probability p in [0, 1].
  bool next_bool(double p);

  /// Exponential with the given rate (> 0).
  double next_exponential(double rate);

  /// Poisson-distributed count with the given mean (>= 0).
  /// Uses Knuth's method for small means and a normal approximation above 64.
  std::uint64_t next_poisson(double mean);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight; negative weights throw.
  std::size_t next_weighted(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[next_below(i)]);
    }
  }

  /// Samples `count` distinct indices from [0, population) (order arbitrary
  /// but deterministic). Requires count <= population.
  std::vector<std::size_t> sample_without_replacement(std::size_t population,
                                                      std::size_t count);

  /// Derives an independent child RNG; children with distinct stream ids are
  /// statistically independent of each other and of the parent.
  [[nodiscard]] Rng fork(std::uint64_t stream) const noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace rap::util
