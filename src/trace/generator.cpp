#include "src/trace/generator.h"

#include <cmath>
#include <stdexcept>

#include "src/geo/bbox.h"
#include "src/graph/dijkstra.h"
#include "src/graph/path.h"

namespace rap::trace {
namespace {

void validate_spec(const TraceGenSpec& spec) {
  if (spec.num_journeys == 0) {
    throw std::invalid_argument("generate_trace: num_journeys must be > 0");
  }
  if (!(spec.mean_runs_per_journey >= 0.0)) {
    throw std::invalid_argument("generate_trace: mean_runs_per_journey < 0");
  }
  if (!(spec.sample_spacing > 0.0)) {
    throw std::invalid_argument("generate_trace: sample_spacing must be > 0");
  }
  if (spec.gps_noise < 0.0) {
    throw std::invalid_argument("generate_trace: gps_noise must be >= 0");
  }
  if (spec.drop_prob < 0.0 || spec.drop_prob >= 1.0) {
    throw std::invalid_argument("generate_trace: drop_prob must be in [0, 1)");
  }
  if (!(spec.speed > 0.0)) {
    throw std::invalid_argument("generate_trace: speed must be > 0");
  }
  if (spec.min_trip_fraction < 0.0 || spec.min_trip_fraction >= 1.0) {
    throw std::invalid_argument(
        "generate_trace: min_trip_fraction must be in [0, 1)");
  }
}

// Demand gravity: node attractiveness = exp(-dist_to_centre / scale), where
// scale is this fraction of the bbox diagonal.
constexpr double kCenterScaleFraction = 0.35;

// Gravity weights: nodes near the bbox centre attract more demand.
std::vector<double> demand_weights(const graph::RoadNetwork& net) {
  const geo::BBox box = net.bounds();
  const geo::Point center = box.center();
  const double diag = std::hypot(box.width(), box.height());
  const double scale = std::max(1.0, kCenterScaleFraction * diag);
  std::vector<double> weights(net.num_nodes());
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
    weights[v] = std::exp(-euclidean_distance(net.position(v), center) / scale);
  }
  return weights;
}

// Emits GPS samples for one run along `path`, spaced along the travelled
// distance with noise and random drop-out. `cum` is
// graph::cumulative_lengths(net, path), shared by every run of a journey.
void emit_run(const graph::RoadNetwork& net,
              std::span<const graph::NodeId> path, std::span<const double> cum,
              const TraceGenSpec& spec, std::uint32_t vehicle,
              std::uint32_t journey, std::uint32_t run, util::Rng& rng,
              std::vector<TraceRecord>& out) {
  const double total = cum.back();
  // Sample positions at s = 0, spacing, 2*spacing, ..., total.
  std::size_t segment = 0;
  for (double s = 0.0;; s += spec.sample_spacing) {
    const double at = std::min(s, total);
    while (segment + 1 < cum.size() && cum[segment + 1] < at) ++segment;
    geo::Point pos;
    if (segment + 1 >= cum.size()) {
      pos = net.position(path.back());
    } else {
      const double seg_len = cum[segment + 1] - cum[segment];
      const double t = seg_len > 0.0 ? (at - cum[segment]) / seg_len : 0.0;
      pos = lerp(net.position(path[segment]), net.position(path[segment + 1]), t);
    }
    if (!rng.next_bool(spec.drop_prob)) {
      TraceRecord record;
      record.vehicle_id = vehicle;
      record.journey_id = journey;
      record.run_id = run;
      record.timestamp = at / spec.speed;
      record.position = {pos.x + rng.next_gaussian(0.0, spec.gps_noise),
                         pos.y + rng.next_gaussian(0.0, spec.gps_noise)};
      out.push_back(record);
    }
    if (at >= total) break;
  }
}

}  // namespace

void for_each_journey(const graph::RoadNetwork& net, const TraceGenSpec& spec,
                      util::Rng& rng, const JourneyVisitor& visit) {
  validate_spec(spec);
  if (net.num_nodes() < 2) {
    throw std::invalid_argument("generate_trace: network too small");
  }
  const std::vector<double> weights = demand_weights(net);
  const geo::BBox box = net.bounds();
  const double min_trip =
      spec.min_trip_fraction * std::hypot(box.width(), box.height());

  // Run ids grow across the day and timestamps within a run, so each
  // journey's records come out in canonical order without a sort.
  std::vector<TraceRecord> records;
  std::uint32_t next_run_id = 0;
  std::uint32_t next_vehicle_id = 0;

  for (std::uint32_t journey = 0; journey < spec.num_journeys; ++journey) {
    // Rejection-sample an OD pair: distinct, far enough apart, connected.
    traffic::TrafficFlow flow;
    bool found = false;
    for (int attempt = 0; attempt < 256 && !found; ++attempt) {
      const auto origin =
          static_cast<graph::NodeId>(rng.next_weighted(weights));
      const auto dest = static_cast<graph::NodeId>(rng.next_weighted(weights));
      if (origin == dest) continue;
      if (euclidean_distance(net.position(origin), net.position(dest)) <
          min_trip) {
        continue;
      }
      auto path = graph::shortest_path(net, origin, dest);
      if (!path) continue;
      flow.origin = origin;
      flow.destination = dest;
      flow.path = std::move(*path);
      found = true;
    }
    if (!found) {
      throw std::runtime_error(
          "generate_trace: could not sample a feasible OD pair; "
          "lower min_trip_fraction or check connectivity");
    }

    const auto runs = static_cast<std::uint32_t>(
        1 + rng.next_poisson(spec.mean_runs_per_journey));
    flow.daily_vehicles = static_cast<double>(runs);
    flow.passengers_per_vehicle = spec.passengers_per_vehicle;
    flow.alpha = spec.alpha;

    records.clear();
    const std::vector<double> cum = graph::cumulative_lengths(net, flow.path);
    for (std::uint32_t r = 0; r < runs; ++r) {
      emit_run(net, flow.path, cum, spec, next_vehicle_id++, journey,
               next_run_id++, rng, records);
    }
    visit(flow, records);
  }
}

SyntheticTrace generate_trace(const graph::RoadNetwork& net,
                              const TraceGenSpec& spec, util::Rng& rng) {
  SyntheticTrace trace;
  for_each_journey(net, spec, rng,
                   [&trace](const traffic::TrafficFlow& planted,
                            std::span<const TraceRecord> records) {
                     trace.records.insert(trace.records.end(), records.begin(),
                                          records.end());
                     trace.planted_flows.push_back(planted);
                   });
  return trace;
}

}  // namespace rap::trace
