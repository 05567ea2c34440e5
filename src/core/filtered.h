// A CoverageModel decorator restricted to a subset of flows. Algorithm 3's
// second stage greedily covers only the *straight* traffic flows; wrapping
// the full model keeps the greedy implementations unchanged.
#pragma once

#include <vector>

#include "src/core/problem.h"

namespace rap::core {

class FilteredCoverageModel final : public CoverageModel {
 public:
  /// `active[f]` selects which of `base`'s flows remain visible. The base
  /// model must outlive the filter. Throws on a size mismatch.
  FilteredCoverageModel(const CoverageModel& base, std::vector<bool> active);

  [[nodiscard]] const graph::RoadNetwork& network() const noexcept override {
    return base_->network();
  }
  [[nodiscard]] const traffic::UtilityFunction& utility() const noexcept override {
    return base_->utility();
  }
  [[nodiscard]] graph::NodeId shop() const noexcept override {
    return base_->shop();
  }
  /// Flow indices are preserved (not compacted): num_flows() matches the
  /// base so indices stay comparable across the filter boundary; filtered
  /// flows simply never appear in reach_at and attract 0 customers.
  [[nodiscard]] std::size_t num_flows() const noexcept override {
    return base_->num_flows();
  }
  [[nodiscard]] std::span<const traffic::NodeIncidence> reach_at(
      graph::NodeId node) const override;
  [[nodiscard]] double customers(traffic::FlowIndex flow,
                                 double detour) const override;
  /// Forwarded unfiltered from the base model: the CoverageModel interface
  /// has no per-flow vehicle breakdown to re-aggregate. Placement gains
  /// (reach_at/customers) are what the filter guarantees; vehicle counts
  /// remain a property of the physical traffic.
  [[nodiscard]] double passing_vehicles(graph::NodeId node) const override;
  /// The active flows in the filtered reach list of `node`. That is every
  /// active flow passing `node` on the Manhattan models Algorithm 3 wraps,
  /// whose reach lists hold every passing flow; over a PlacementProblem,
  /// whose lists hold only flows within the utility's range, it counts
  /// those alone.
  [[nodiscard]] std::size_t passing_flow_count(
      graph::NodeId node) const override;

 private:
  const CoverageModel* base_;
  std::vector<bool> active_;
  // Materialised filtered reach lists (CSR), built once.
  std::vector<std::uint32_t> node_start_;
  std::vector<traffic::NodeIncidence> node_entries_;
  std::vector<double> vehicles_at_node_;
};

}  // namespace rap::core
