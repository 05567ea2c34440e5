// The RAP placement problem (Section III-A) behind an abstract coverage
// interface.
//
// CoverageModel is what every placement algorithm consumes: for each
// intersection, which flows can be reached from there and at what detour
// distance. Two implementations exist:
//   * PlacementProblem (this file) — the general scenario: flows travel a
//     fixed path, so a RAP reaches a flow only at the path's intersections;
//   * manhattan::FlexibleProblem — the Section IV scenario: flows choose
//     among all of their shortest paths, so a RAP reaches a flow at any
//     intersection of the shortest-path DAG.
// Keeping the algorithms against the interface is exactly what lets
// Algorithms 1/2 and the baselines run unchanged under both scenarios
// (Figs. 12 vs 13).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/graph/road_network.h"
#include "src/traffic/detour.h"
#include "src/traffic/flow.h"
#include "src/traffic/incidence.h"
#include "src/traffic/utility.h"

namespace rap::core {

/// A placement is the set of intersections hosting RAPs.
using Placement = std::vector<graph::NodeId>;

/// A placement plus its objective value (expected attracted customers/day).
struct PlacementResult {
  Placement nodes;
  double customers = 0.0;
};

/// Coverage interface consumed by all placement algorithms.
class CoverageModel {
 public:
  virtual ~CoverageModel() = default;

  [[nodiscard]] virtual const graph::RoadNetwork& network() const noexcept = 0;
  [[nodiscard]] virtual const traffic::UtilityFunction& utility()
      const noexcept = 0;
  /// The shop intersection, or kInvalidNode when not a single-shop model.
  [[nodiscard]] virtual graph::NodeId shop() const noexcept = 0;

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return network().num_nodes();
  }
  [[nodiscard]] virtual std::size_t num_flows() const noexcept = 0;

  /// Flows reachable from `node` with the detour distance a RAP there would
  /// offer them, in ascending flow order. A model may leave out a flow whose
  /// customers() at that detour is 0: no gain or objective can tell.
  [[nodiscard]] virtual std::span<const traffic::NodeIncidence> reach_at(
      graph::NodeId node) const = 0;

  /// Expected customers from flow `flow` at best detour `detour`:
  /// f(detour) * population; 0 for infinite detour.
  [[nodiscard]] virtual double customers(traffic::FlowIndex flow,
                                         double detour) const = 0;

  /// Daily vehicles passing `node` (MaxVehicles baseline ranking).
  [[nodiscard]] virtual double passing_vehicles(graph::NodeId node) const = 0;
  /// Distinct flows passing `node` (MaxCardinality baseline ranking).
  [[nodiscard]] virtual std::size_t passing_flow_count(
      graph::NodeId node) const = 0;

 protected:
  CoverageModel() = default;
  CoverageModel(const CoverageModel&) = default;
  CoverageModel& operator=(const CoverageModel&) = default;
};

/// The general-scenario problem instance: fixed travel paths.
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

  PlacementProblem(const PlacementProblem&) = delete;
  PlacementProblem& operator=(const PlacementProblem&) = delete;
  PlacementProblem(PlacementProblem&&) = default;
  PlacementProblem& operator=(PlacementProblem&&) = default;

  [[nodiscard]] const graph::RoadNetwork& network() const noexcept override {
    return *net_;
  }
  [[nodiscard]] const traffic::UtilityFunction& utility() const noexcept override {
    return *utility_;
  }
  [[nodiscard]] graph::NodeId shop() const noexcept override { return shop_; }
  [[nodiscard]] std::size_t num_flows() const noexcept override {
    return weights_.size();
  }
  /// Only the flows whose detour at `node` is within utility().range(): a
  /// flow beyond it attracts exactly 0 customers there (the range()
  /// contract), and any entry that could beat it has a smaller detour, so
  /// dropping it changes no gain, objective or tie. passing_flow_count and
  /// passing_vehicles still count every flow passing `node`.
  [[nodiscard]] std::span<const traffic::NodeIncidence> reach_at(
      graph::NodeId node) const override {
    return incidence_.at_node(node);
  }
  [[nodiscard]] double customers(traffic::FlowIndex flow,
                                 double detour) const override;
  [[nodiscard]] double passing_vehicles(graph::NodeId node) const override {
    return incidence_.passing_vehicles(node);
  }
  [[nodiscard]] std::size_t passing_flow_count(
      graph::NodeId node) const override {
    return incidence_.passing_flow_count(node);
  }

  [[nodiscard]] const traffic::IncidenceIndex& incidence() const noexcept {
    return incidence_;
  }

 private:
  /// What customers() needs of a flow: its population() and alpha.
  struct FlowWeight {
    double population = 0.0;
    double alpha = 1.0;
  };

  const graph::RoadNetwork* net_;
  graph::NodeId shop_;
  const traffic::UtilityFunction* utility_;
  traffic::IncidenceIndex incidence_;
  std::vector<FlowWeight> weights_;
};

}  // namespace rap::core
