// Named-metric registry: counters, gauges, and fixed-bucket histograms.
//
// The registry is the accumulation half of the observability layer
// (src/obs/trace.h holds the timing half). It is deliberately
// *thread-compatible* rather than thread-safe, mirroring
// util::RunningStats: each worker owns a private registry and the owner
// merges them afterwards, so the hot path never touches a lock. All three
// metric kinds merge commutatively; histogram moments merge through
// RunningStats' parallel-combine rule.
//
// Metrics are created on first use — `registry.counter("greedy.iterations")`
// returns a stable reference that stays valid for the registry's lifetime —
// so instrumentation sites need no central declaration list. Histogram
// bucket bounds are fixed at creation; later lookups with different bounds
// keep the original edges (merging registries with conflicting edges throws).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/rng.h"
#include "src/util/stats.h"

namespace rap::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (e.g. "flows", "nodes"). A gauge that
/// was created but never set() reports has_value() == false; merging skips
/// it (so a worker that never touched a gauge cannot clobber one that did)
/// and the JSON export emits null instead of a fake 0.
class Gauge {
 public:
  void set(double value) noexcept {
    value_ = value;
    has_value_ = true;
  }
  /// 0.0 until the first set(); check has_value() to tell the difference.
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] bool has_value() const noexcept { return has_value_; }

 private:
  double value_ = 0.0;
  bool has_value_ = false;
};

/// Distribution of observed samples: fixed cumulative-style buckets (counts
/// per upper edge, plus an implicit +inf overflow bucket), streaming moments,
/// and a bounded raw-sample reservoir that feeds percentiles. While the
/// observation count stays within kMaxRetainedSamples (the common case for
/// per-stage latencies) every sample is retained and percentiles are exact;
/// beyond that the reservoir switches to deterministic uniform replacement
/// (Vitter's Algorithm R driven by a fixed-seed SplitMix64), so percentiles
/// degrade to estimates over an unbiased subsample of the whole stream —
/// not, as a naive cap would give, the stream's first 4096 values. The
/// fixed seed keeps identical observation sequences bit-identical.
class Histogram {
 public:
  /// `upper_edges` must be strictly increasing; may be empty (moments only).
  explicit Histogram(std::vector<double> upper_edges);

  void observe(double value);

  [[nodiscard]] std::size_t count() const noexcept { return stats_.count(); }
  [[nodiscard]] const util::RunningStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::span<const double> upper_edges() const noexcept {
    return upper_edges_;
  }
  /// Per-bucket counts; size is upper_edges().size() + 1 (last = overflow).
  [[nodiscard]] std::span<const std::uint64_t> bucket_counts() const noexcept {
    return bucket_counts_;
  }

  /// Linear-interpolated percentile over the retained samples, q in
  /// [0, 100]. Exact until the reservoir has had to discard (see
  /// percentiles_exact()); a uniform-subsample estimate after. Throws when
  /// empty.
  [[nodiscard]] double percentile(double q) const;

  /// True while percentile() is exact (the reservoir never discarded a
  /// sample, including through merge()).
  [[nodiscard]] bool percentiles_exact() const noexcept { return exact_; }

  /// Combines another histogram observed over disjoint events. Throws
  /// std::invalid_argument when bucket edges differ. The other reservoir's
  /// retained samples are fed through this reservoir; if either side had
  /// already discarded, the result is flagged inexact.
  void merge(const Histogram& other);

  /// Reservoir capacity; beyond it percentiles become reservoir estimates.
  static constexpr std::size_t kMaxRetainedSamples = 4096;

 private:
  void reservoir_add(double value);

  std::vector<double> upper_edges_;
  std::vector<std::uint64_t> bucket_counts_;
  util::RunningStats stats_;
  // Reservoir in insertion order; percentile() sorts a copy so the
  // replacement positions chosen by Algorithm R never depend on whether a
  // percentile was read mid-stream.
  std::vector<double> samples_;
  std::uint64_t reservoir_seen_ = 0;  // values offered to the reservoir
  util::SplitMix64 reservoir_rng_{kReservoirSeed};
  bool exact_ = true;

  static constexpr std::uint64_t kReservoirSeed = 0x9a7e5eedULL;
};

/// Name-keyed collection of all three metric kinds. Thread-compatible;
/// merge per-thread instances instead of sharing one.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  MetricsRegistry(MetricsRegistry&&) = default;
  MetricsRegistry& operator=(MetricsRegistry&&) = default;

  /// Find-or-create. References stay valid until the registry is destroyed
  /// (metrics are never removed).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_edges` applies on creation only; pass empty to accept whatever
  /// edges the metric already has (or a moments-only histogram when new).
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_edges = {});

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Sorted-by-name views for exporters.
  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters()
      const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge, std::less<>>& gauges()
      const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const noexcept {
    return histograms_;
  }

  /// Adds counters, overwrites gauges with `other`'s value when set there,
  /// and merges histograms bucket-wise. Metrics unknown here are created.
  void merge(const MetricsRegistry& other);

 private:
  // std::map nodes are address-stable, so returned references survive
  // later insertions.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace rap::obs
