#include "src/obs/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace rap::obs {

Histogram::Histogram(std::vector<double> upper_edges)
    : upper_edges_(std::move(upper_edges)),
      bucket_counts_(upper_edges_.size() + 1, 0) {
  for (std::size_t i = 1; i < upper_edges_.size(); ++i) {
    if (upper_edges_[i] <= upper_edges_[i - 1]) {
      throw std::invalid_argument(
          "Histogram: upper edges must be strictly increasing");
    }
  }
}

void Histogram::observe(double value) {
  // First bucket whose upper edge admits the value; values above every edge
  // land in the trailing overflow bucket.
  const auto it =
      std::lower_bound(upper_edges_.begin(), upper_edges_.end(), value);
  ++bucket_counts_[static_cast<std::size_t>(it - upper_edges_.begin())];
  stats_.add(value);
  reservoir_add(value);
}

void Histogram::reservoir_add(double value) {
  // Vitter's Algorithm R: the i-th value replaces a random reservoir slot
  // with probability capacity/i, which keeps every value seen so far equally
  // likely to be retained. The fixed-seed SplitMix64 makes the subsample a
  // pure function of the observation sequence. The modulo draw carries a
  // bias below 2^-40 for any realistic stream length — irrelevant next to
  // the sampling error of a 4096-sample estimate.
  ++reservoir_seen_;
  if (samples_.size() < kMaxRetainedSamples) {
    samples_.push_back(value);
    return;
  }
  exact_ = false;
  const std::uint64_t slot = reservoir_rng_.next() % reservoir_seen_;
  if (slot < kMaxRetainedSamples) {
    samples_[static_cast<std::size_t>(slot)] = value;
  }
}

double Histogram::percentile(double q) const {
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  return util::percentile_sorted(sorted, q);
}

void Histogram::merge(const Histogram& other) {
  if (upper_edges_ != other.upper_edges_) {
    throw std::invalid_argument("Histogram::merge: bucket edges differ");
  }
  for (std::size_t i = 0; i < bucket_counts_.size(); ++i) {
    bucket_counts_[i] += other.bucket_counts_[i];
  }
  stats_.merge(other.stats_);
  // Feed the other reservoir through this one. While both sides are exact
  // and the union fits, this retains everything; otherwise the result is an
  // estimate (and flagged as such) — other.samples_ is itself a subsample,
  // so re-sampling it cannot recover exactness.
  exact_ = exact_ && other.exact_;
  for (const double value : other.samples_) reservoir_add(value);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_edges) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_
      .emplace(std::string(name), Histogram(std::move(upper_edges)))
      .first->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).add(c.value());
  for (const auto& [name, g] : other.gauges_) {
    // A created-but-never-set gauge carries no information; overwriting with
    // its default 0.0 would erase a real reading.
    if (g.has_value()) {
      gauge(name).set(g.value());
    } else {
      gauge(name);  // still materialize the name
    }
  }
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
    } else {
      it->second.merge(h);
    }
  }
}

}  // namespace rap::obs
