// The RAP coverage table (Section III-A) and the general-scenario problem.
//
// CoverageModel is what every placement algorithm consumes: for each
// intersection, which flows a RAP there reaches and at what detour distance.
// It is one concrete table, filled through one CoverageBuilder, and it
// holds only what placement reads: the node -> (flow, detour) CSR and each
// flow's (population, alpha) weight. Traffic statistics such as the flows
// and vehicles passing a node are a property of the trace, not of the
// table (traffic::passing_traffic). The four models differ only in what
// they stage into it:
//   * PlacementProblem (this file) — the general scenario: a flow travels a
//     fixed path, so a RAP reaches it only at the path's intersections;
//   * manhattan::FlexibleProblem — the Section IV scenario on a real
//     network: any intersection of the flow's shortest-path DAG;
//   * manhattan::GridCoverageModel — the ideal Manhattan grid: any
//     intersection of the flow's bounding rectangle;
//   * FilteredCoverageModel — another model's table restricted to a subset
//     of its flows (Algorithm 3's straight-flow stage).
// One table under all of them is what lets Algorithms 1/2 and the baselines
// run unchanged under both scenarios (Figs. 12 vs 13). The models add no
// state of their own, so any of them can be held as a plain CoverageModel.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/graph/road_network.h"
#include "src/traffic/detour.h"
#include "src/traffic/flow.h"
#include "src/traffic/utility.h"

namespace rap::core {

/// A placement is the set of intersections hosting RAPs.
using Placement = std::vector<graph::NodeId>;

/// A placement plus its objective value (expected attracted customers/day).
struct PlacementResult {
  Placement nodes;
  double customers = 0.0;
};

/// Node -> (flow, detour) coverage table consumed by all placement
/// algorithms. Built by CoverageBuilder; move-only.
class CoverageModel {
 public:
  CoverageModel(CoverageModel&&) noexcept = default;
  CoverageModel& operator=(CoverageModel&&) noexcept = default;
  CoverageModel(const CoverageModel&) = delete;
  CoverageModel& operator=(const CoverageModel&) = delete;
  ~CoverageModel() = default;

  [[nodiscard]] const graph::RoadNetwork& network() const noexcept {
    return *net_;
  }
  [[nodiscard]] const traffic::UtilityFunction& utility() const noexcept {
    return *utility_;
  }
  /// The shop intersection, or kInvalidNode when not a single-shop model.
  [[nodiscard]] graph::NodeId shop() const noexcept { return shop_; }

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return network().num_nodes();
  }
  [[nodiscard]] std::size_t num_flows() const noexcept {
    return weights_.size();
  }
  /// Kept (flow, node) entries: the total length of every reach list.
  [[nodiscard]] std::size_t num_entries() const noexcept {
    return entries_.size();
  }

  /// Flows reachable from `node` with the detour distance a RAP there would
  /// offer them, in ascending flow order. A model may leave out a flow whose
  /// customers() at that detour is 0: no gain or objective can tell.
  [[nodiscard]] std::span<const traffic::NodeIncidence> reach_at(
      graph::NodeId node) const;

  /// Expected customers from flow `flow` at best detour `detour`:
  /// f(detour) * population; 0 for infinite detour.
  [[nodiscard]] double customers(traffic::FlowIndex flow,
                                 double detour) const;

 private:
  friend class CoverageBuilder;
  friend class FilteredCoverageModel;

  /// What customers() needs of a flow: its population() and alpha.
  struct FlowWeight {
    double population = 0.0;
    double alpha = 1.0;
  };

  CoverageModel(const graph::RoadNetwork& net, graph::NodeId shop,
                const traffic::UtilityFunction& utility);

  const graph::RoadNetwork* net_;
  graph::NodeId shop_;
  const traffic::UtilityFunction* utility_;
  std::vector<FlowWeight> weights_;
  std::vector<std::uint32_t> node_start_;  // CSR offsets, size num_nodes + 1
  std::vector<traffic::NodeIncidence> entries_;
};

/// Fills a CoverageModel one flow at a time, in ascending flow order.
/// add_flow opens the next flow; add_pass records that it passes a node at
/// a detour, and a repeated node keeps its minimum detour over the visits.
/// A flow's entries beyond `max_detour` are dropped once the next flow
/// opens, so the builder holds the kept entries plus one flow's
/// passes, never every pass. build() counting-sorts the entries into the
/// node CSR; flows arrive in ascending order, so every reach list does too.
class CoverageBuilder {
 public:
  /// `net` and `utility` must outlive the built model. `max_detour` is
  /// utility.range() to keep only the entries a RAP can use (every utility
  /// is exactly 0 beyond it), or graph::kUnreachable to keep every pass.
  CoverageBuilder(const graph::RoadNetwork& net, graph::NodeId shop,
                  const traffic::UtilityFunction& utility, double max_detour);

  /// Opens the next flow, whose customers `population` and `alpha` weigh.
  /// Throws std::invalid_argument unless population is finite and >= 0 and
  /// alpha is in [0, 1].
  void add_flow(double population, double alpha);
  /// Sizes the per-flow weights for `count` flows up front.
  void reserve_flows(std::size_t count) { model_.weights_.reserve(count); }

  /// The open flow passes `node`, where a RAP offers it `detour`. Throws
  /// std::out_of_range on a bad node and std::logic_error before the first
  /// add_flow.
  void add_pass(graph::NodeId node, double detour);

  [[nodiscard]] CoverageModel build() &&;

 private:
  struct Staged {  // 16 B: a reach-list entry plus its node
    graph::NodeId node;
    traffic::FlowIndex flow;
    double detour;
  };
  void prune_open_flow();

  CoverageModel model_;
  double max_detour_;
  std::size_t open_begin_ = 0;             // the open flow's first entry
  std::vector<std::uint32_t> last_flow_;   // last flow that passed each node
  std::vector<std::uint32_t> staged_at_;   // that flow's entry at the node
  std::vector<Staged> staged_;
};

/// The fixed-path table (Section III-A): validates every flow, prices its
/// path with `detours` and stages each distinct path node at the flow's
/// minimum detour over its visits (the first visit, by Theorem 1, on
/// shortest paths). Each path is walked once: the pricing walk is the walk
/// check (see DetourSource), between validate_flow's other checks, so a bad
/// flow throws validate_flow's std::invalid_argument message.
[[nodiscard]] CoverageModel fixed_path_coverage(
    const graph::RoadNetwork& net,
    const std::vector<traffic::TrafficFlow>& flows, graph::NodeId shop,
    const traffic::UtilityFunction& utility,
    const traffic::DetourSource& detours, double max_detour);

/// The general-scenario problem instance: the fixed-path table at
/// max_detour = utility.range(). A flow beyond the range at a node attracts
/// exactly 0 customers there, and any entry that could beat it has a
/// smaller detour, so dropping it changes no gain, objective or tie.
class PlacementProblem final : public CoverageModel {
 public:
  /// Single-shop problem. `net` and `utility` must outlive the problem;
  /// flows are validated and read only during construction. Throws
  /// std::invalid_argument on a bad flow or shop id.
  PlacementProblem(const graph::RoadNetwork& net,
                   const std::vector<traffic::TrafficFlow>& flows,
                   graph::NodeId shop,
                   const traffic::UtilityFunction& utility);

  /// Generalised constructor with an externally supplied detour source
  /// (used by the multi-shop extension), which prices the flows during
  /// construction only. `shop` is only used for reporting and the Random
  /// baseline; pass kInvalidNode when there is no single shop.
  PlacementProblem(const graph::RoadNetwork& net,
                   const std::vector<traffic::TrafficFlow>& flows,
                   graph::NodeId shop,
                   const traffic::UtilityFunction& utility,
                   std::unique_ptr<const traffic::DetourSource> detours);
};

}  // namespace rap::core
