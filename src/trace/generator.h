// Synthetic GPS trace generation — the substitution for the proprietary
// Dublin and Seattle bus datasets (see DESIGN.md §3).
//
// The generator plants a set of ground-truth traffic flows (journey
// patterns) with a gravity demand model biased towards the city centre,
// then simulates each vehicle run along its pattern's path, emitting noisy,
// subsampled GPS records. The planted flows are returned alongside the
// records so tests can verify that the map-matching + extraction pipeline
// recovers them.
//
// for_each_journey generates the day one journey at a time, so a consumer
// that matches each journey as it arrives holds one journey's samples, not
// the day's; generate_trace collects the same journeys into one trace.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "src/graph/road_network.h"
#include "src/trace/record.h"
#include "src/traffic/flow.h"
#include "src/util/rng.h"

namespace rap::trace {

struct TraceGenSpec {
  /// Number of distinct journey patterns (traffic flows) to plant.
  std::size_t num_journeys = 50;
  /// Mean daily runs (vehicles) per journey; actual counts ~ 1 + Poisson.
  double mean_runs_per_journey = 20.0;
  /// Distance between consecutive GPS samples along the path, feet.
  double sample_spacing = 400.0;
  /// Stddev of isotropic GPS position noise, feet.
  double gps_noise = 50.0;
  /// Probability that an individual GPS sample is lost.
  double drop_prob = 0.05;
  /// Average vehicle speed, feet/second (timestamps only).
  double speed = 30.0;
  /// Minimum OD Euclidean separation as a fraction of the bbox diagonal
  /// (rejects trivial trips).
  double min_trip_fraction = 0.25;
  /// Potential customers per vehicle (100 Dublin / 200 Seattle).
  double passengers_per_vehicle = 100.0;
  /// Advertisement attractiveness (0.001 in the paper's evaluation).
  double alpha = 0.001;
};

struct SyntheticTrace {
  /// In the canonical (journey, run, timestamp) order split_runs expects.
  std::vector<TraceRecord> records;
  /// Ground truth: one flow per journey pattern, daily_vehicles = run count.
  std::vector<traffic::TrafficFlow> planted_flows;
};

/// Receives one generated journey: its planted flow and its records, all of
/// that journey id, in (run, timestamp) order. The records live in a buffer
/// the generator reuses for the next journey.
using JourneyVisitor =
    std::function<void(const traffic::TrafficFlow& planted,
                       std::span<const TraceRecord> records)>;

/// Generates the day deterministically from `rng` and hands `visit` each
/// journey in ascending journey id. Throws std::invalid_argument on bad spec
/// values or a network with < 2 nodes, before any draw.
void for_each_journey(const graph::RoadNetwork& net, const TraceGenSpec& spec,
                      util::Rng& rng, const JourneyVisitor& visit);

/// Collects every journey of for_each_journey into one trace: the same
/// draws from `rng`, the records concatenated, the planted flows in order.
[[nodiscard]] SyntheticTrace generate_trace(const graph::RoadNetwork& net,
                                            const TraceGenSpec& spec,
                                            util::Rng& rng);

}  // namespace rap::trace
