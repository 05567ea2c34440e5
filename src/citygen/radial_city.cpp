#include "src/citygen/radial_city.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rap::citygen {
namespace {

void validate(const RadialSpec& spec) {
  if (spec.rings < 1) {
    throw std::invalid_argument("build_radial_city: rings must be >= 1");
  }
  if (spec.nodes_on_first_ring < 3) {
    throw std::invalid_argument(
        "build_radial_city: nodes_on_first_ring must be >= 3");
  }
  if (!(spec.ring_spacing > 0.0)) {
    throw std::invalid_argument("build_radial_city: ring_spacing must be > 0");
  }
  if (spec.chord_prob < 0.0 || spec.chord_prob >= 1.0 ||
      spec.oneway_prob < 0.0 || spec.oneway_prob >= 1.0) {
    throw std::invalid_argument(
        "build_radial_city: probabilities must be in [0, 1)");
  }
  if (spec.angular_jitter < 0.0 || spec.radial_jitter < 0.0) {
    throw std::invalid_argument("build_radial_city: jitter must be >= 0");
  }
}

void add_street_checked(graph::NetworkBuilder& net, graph::NodeId a,
                        graph::NodeId b, double oneway_prob, util::Rng& rng) {
  if (a == b) return;
  const double length =
      euclidean_distance(net.position(a), net.position(b));
  if (!(length > 0.0)) return;  // coincident jittered nodes: skip the street
  if (rng.next_bool(oneway_prob)) {
    if (rng.next_bool(0.5)) {
      net.add_edge(a, b, length);
    } else {
      net.add_edge(b, a, length);
    }
  } else {
    net.add_two_way_edge(a, b, length);
  }
}

}  // namespace

graph::RoadNetwork build_radial_city(const RadialSpec& spec, util::Rng& rng) {
  validate(spec);
  graph::NetworkBuilder scratch;
  const graph::NodeId center = scratch.add_node(spec.center);

  // Ring r (1-based) has nodes_on_first_ring + (r-1) * nodes_per_ring_step
  // intersections at radius ~ r * ring_spacing.
  std::vector<std::vector<graph::NodeId>> rings;
  rings.reserve(spec.rings);
  for (std::size_t r = 1; r <= spec.rings; ++r) {
    const std::size_t count =
        spec.nodes_on_first_ring + (r - 1) * spec.nodes_per_ring_step;
    std::vector<graph::NodeId> ring;
    ring.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const double base_angle = 2.0 * std::numbers::pi *
                                static_cast<double>(i) /
                                static_cast<double>(count);
      const double angle =
          base_angle + rng.next_gaussian(0.0, spec.angular_jitter);
      const double radius =
          static_cast<double>(r) * spec.ring_spacing *
          (1.0 + rng.next_gaussian(0.0, spec.radial_jitter));
      ring.push_back(scratch.add_node(
          {spec.center.x + radius * std::cos(angle),
           spec.center.y + radius * std::sin(angle)}));
    }
    rings.push_back(std::move(ring));
  }

  // Ring roads: each ring node to its angular successor.
  for (const auto& ring : rings) {
    for (std::size_t i = 0; i < ring.size(); ++i) {
      add_street_checked(scratch, ring[i], ring[(i + 1) % ring.size()],
                         spec.oneway_prob, rng);
    }
  }
  // Spokes: centre to every first-ring node; then each node to the closest
  // node (by angular index scaling) on the next inner ring.
  for (const graph::NodeId v : rings.front()) {
    add_street_checked(scratch, center, v, spec.oneway_prob, rng);
  }
  for (std::size_t r = 1; r < rings.size(); ++r) {
    const auto& outer = rings[r];
    const auto& inner = rings[r - 1];
    for (std::size_t i = 0; i < outer.size(); ++i) {
      const std::size_t j =
          (i * inner.size() + outer.size() / 2) / outer.size() % inner.size();
      add_street_checked(scratch, outer[i], inner[j], spec.oneway_prob, rng);
    }
  }
  // Extra chords: occasional shortcut streets between nearby rings.
  for (std::size_t r = 0; r < rings.size(); ++r) {
    for (std::size_t i = 0; i < rings[r].size(); ++i) {
      if (!rng.next_bool(spec.chord_prob)) continue;
      const std::size_t r2 = r + 1 < rings.size() ? r + 1 : r;
      const auto& other = rings[r2];
      add_street_checked(scratch, rings[r][i],
                         other[rng.next_below(other.size())],
                         spec.oneway_prob, rng);
    }
  }

  // Keep the largest strongly connected component.
  const graph::RoadNetwork whole = std::move(scratch).build();
  return graph::induced_subnetwork(whole, whole.largest_scc());
}

}  // namespace rap::citygen
