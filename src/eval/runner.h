// Experiment runner: repeats (shop draw -> build model -> run algorithms ->
// record customers) and aggregates per-(algorithm, k) statistics.
//
// Greedy and ranking algorithms produce *nested* placements (each prefix of
// the k=10 run is the k=j run), so the runner executes them once per
// repetition at max(k) and reads prefix values — the same trick makes the
// Random baseline sweep free because a prefix of a uniform sample is a
// uniform sample. The two-stage algorithms are not nested and run per k.
// MaxCardinality and MaxVehicles rank by the traffic on the flows' recorded
// paths (traffic::passing_traffic) in both scenarios; the Manhattan one
// values their placements on its flexible-route table. The workload walks
// those paths once, and every repetition reads that one ranking.
#pragma once

#include "src/eval/experiment.h"
#include "src/graph/road_network.h"
#include "src/traffic/flow.h"

namespace rap::eval {

/// A city + its traffic, ready for experiments.
struct Workload {
  const graph::RoadNetwork* net = nullptr;
  std::vector<traffic::TrafficFlow> flows;
  /// Per intersection: ranks MaxCardinality/MaxVehicles and sets `classes`.
  traffic::PassingTraffic passing;
  std::vector<trace::LocationClass> classes;  ///< per intersection
  std::string name;
};

/// Builds a workload, classifying intersections from the flows' passing
/// traffic. Throws std::invalid_argument on a bad flow.
[[nodiscard]] Workload make_workload(const graph::RoadNetwork& net,
                                     std::vector<traffic::TrafficFlow> flows,
                                     std::string name);

/// Runs the experiment. Throws std::invalid_argument on an empty k sweep,
/// no intersection in the requested shop class, or a two-stage algorithm
/// outside the Manhattan scenario.
[[nodiscard]] ExperimentResult run_experiment(const Workload& workload,
                                              const ExperimentConfig& config);

}  // namespace rap::eval
