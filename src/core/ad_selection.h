// Multiple advertisement kinds — the paper's stated future work ("multiple
// shops and multiple kinds of advertisements").
//
// Each RAP broadcasts ONE advertisement kind; drivers differ in which ads
// interest them. interest[f][a] in [0, 1] scales flow f's attraction to ad
// kind a (1 = the single-ad model). Since all the paper's utilities are
// linear in alpha, the expected customers from flow f hearing ad a at
// detour d is interest[f][a] * customers(f, d), and the per-flow
// contribution is the maximum over placed (intersection, ad) pairs — still
// a monotone submodular objective, so the joint greedy over pairs inherits
// the 1 - 1/e guarantee.
#pragma once

#include <span>
#include <vector>

#include "src/core/problem.h"

namespace rap::core {

using AdKind = std::uint32_t;

struct AdAssignment {
  graph::NodeId node = graph::kInvalidNode;
  AdKind ad = 0;
};

struct AdPlacementResult {
  std::vector<AdAssignment> raps;  ///< in placement order
  double customers = 0.0;
};

/// Flow-by-ad interest matrix, row-major: interest[f * num_ads + a].
class InterestMatrix {
 public:
  /// Throws on a size mismatch or entries outside [0, 1].
  InterestMatrix(std::size_t num_flows, std::size_t num_ads,
                 std::vector<double> values);

  [[nodiscard]] std::size_t num_flows() const noexcept { return num_flows_; }
  [[nodiscard]] std::size_t num_ads() const noexcept { return num_ads_; }
  [[nodiscard]] double operator()(traffic::FlowIndex flow, AdKind ad) const;

 private:
  std::size_t num_flows_;
  std::size_t num_ads_;
  std::vector<double> values_;
};

/// Joint greedy over (intersection, ad) pairs; each intersection hosts at
/// most one RAP. Stops early when nothing gains. Throws when k == 0 or the
/// matrix does not match the model's flow count.
[[nodiscard]] AdPlacementResult multi_ad_greedy_placement(
    const CoverageModel& model, const InterestMatrix& interest, std::size_t k);

/// One-shot evaluation of an assignment (later duplicates of a node are
/// ignored, matching the placement semantics).
[[nodiscard]] double evaluate_ad_placement(
    const CoverageModel& model, const InterestMatrix& interest,
    std::span<const AdAssignment> raps);

}  // namespace rap::core
