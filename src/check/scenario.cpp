#include "src/check/scenario.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/geo/point.h"
#include "src/util/rng.h"

namespace rap::check {
namespace {

double checked_range(double range, const char* who) {
  if (!(range > 0.0) || !std::isfinite(range)) {
    throw std::invalid_argument(std::string(who) +
                                ": range D must be finite and > 0");
  }
  return range;
}

void append_double(std::string& out, double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  out += s.str();
}

}  // namespace

StepUtility::StepUtility(double range, std::size_t steps)
    : range_(checked_range(range, "StepUtility")), steps_(steps) {
  if (steps_ == 0) {
    throw std::invalid_argument("StepUtility: steps must be > 0");
  }
}

double StepUtility::probability(double detour, double alpha) const {
  traffic::check_utility_args(detour, alpha);
  if (detour > range_) return 0.0;
  // Plateau index 0..steps: full alpha on [0, D/steps), down one notch per
  // plateau, 0 at detour == D.
  const double position = detour / range_ * static_cast<double>(steps_);
  const double drop = std::min(std::floor(position),
                               static_cast<double>(steps_));
  return alpha * (static_cast<double>(steps_) - drop) /
         static_cast<double>(steps_);
}

AdversarialUtility::AdversarialUtility(double range, std::uint64_t seed)
    : range_(checked_range(range, "AdversarialUtility")) {
  // Derive wave parameters from the seed so each scenario gets its own
  // non-monotone shape, deterministically.
  util::SplitMix64 mix(seed);
  const auto unit = [&mix]() {
    return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  };
  freq_a_ = 0.5 + 2.5 * unit();
  freq_b_ = 0.5 + 2.5 * unit();
  phase_a_ = 2.0 * std::numbers::pi * unit();
  phase_b_ = 2.0 * std::numbers::pi * unit();
}

double AdversarialUtility::probability(double detour, double alpha) const {
  traffic::check_utility_args(detour, alpha);
  if (detour > range_) return 0.0;
  // Mixture of two sinusoids mapped into [0, 1]: bounded, zero beyond the
  // range, deliberately NOT non-increasing in the detour.
  const double wave = 0.5 + 0.25 * std::sin(freq_a_ * detour + phase_a_) +
                      0.25 * std::sin(freq_b_ * detour + phase_b_);
  return alpha * wave;
}

const char* fuzz_utility_name(FuzzUtility kind) noexcept {
  switch (kind) {
    case FuzzUtility::kThreshold:
      return "threshold";
    case FuzzUtility::kLinear:
      return "linear";
    case FuzzUtility::kSqrt:
      return "sqrt";
    case FuzzUtility::kStep:
      return "step";
    case FuzzUtility::kAdversarial:
      return "adversarial";
  }
  return "unknown";
}

std::unique_ptr<Scenario> generate_scenario(std::uint64_t seed) {
  auto scenario = std::make_unique<Scenario>();
  scenario->seed = seed;
  util::Rng rng(seed);

  // Grid backbone (always strongly connected) plus random chords. Kept
  // independent of the test-only builders in tests/testing/builders.h.
  const std::size_t cols = 3 + static_cast<std::size_t>(rng.next_below(4));
  const std::size_t rows = 3 + static_cast<std::size_t>(rng.next_below(4));
  graph::NetworkBuilder net;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      net.add_node({static_cast<double>(c), static_cast<double>(r)});
    }
  }
  const auto at = [&](std::size_t c, std::size_t r) {
    return static_cast<graph::NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        net.add_two_way_edge(at(c, r), at(c + 1, r), 1.0);
      }
      if (r + 1 < rows) {
        net.add_two_way_edge(at(c, r), at(c, r + 1), 1.0);
      }
    }
  }
  const std::size_t n = net.num_nodes();
  const std::size_t extra = static_cast<std::size_t>(rng.next_below(7));
  for (std::size_t i = 0; i < extra; ++i) {
    const auto a = static_cast<graph::NodeId>(rng.next_below(n));
    const auto b = static_cast<graph::NodeId>(rng.next_below(n));
    if (a == b) continue;
    const double len = std::max(
        0.5, geo::euclidean_distance(net.position(a), net.position(b)) * 0.9);
    net.add_two_way_edge(a, b, len);
  }
  scenario->net = std::move(net).build();

  const std::size_t num_flows = 4 + static_cast<std::size_t>(rng.next_below(21));
  while (scenario->flows.size() < num_flows) {
    const auto i = static_cast<graph::NodeId>(rng.next_below(n));
    const auto j = static_cast<graph::NodeId>(rng.next_below(n));
    if (i == j) continue;
    const double vehicles = static_cast<double>(1 + rng.next_below(20));
    const double passengers = 1.0 + static_cast<double>(rng.next_below(3));
    const double alpha = rng.next_double(0.1, 1.0);
    scenario->flows.push_back(traffic::make_shortest_path_flow(
        scenario->net, i, j, vehicles, passengers, alpha));
  }

  scenario->shop = static_cast<graph::NodeId>(rng.next_below(n));
  scenario->range = rng.next_double(2.0, 10.0);
  scenario->k = 1 + static_cast<std::size_t>(rng.next_below(6));
  // seed % 5 rather than an rng draw so any contiguous window of seeds
  // covers every utility family.
  scenario->utility_kind = static_cast<FuzzUtility>(seed % 5);
  switch (scenario->utility_kind) {
    case FuzzUtility::kThreshold:
      scenario->utility =
          std::make_unique<traffic::ThresholdUtility>(scenario->range);
      break;
    case FuzzUtility::kLinear:
      scenario->utility =
          std::make_unique<traffic::LinearUtility>(scenario->range);
      break;
    case FuzzUtility::kSqrt:
      scenario->utility =
          std::make_unique<traffic::SqrtUtility>(scenario->range);
      break;
    case FuzzUtility::kStep:
      scenario->utility = std::make_unique<StepUtility>(
          scenario->range, 2 + static_cast<std::size_t>(rng.next_below(5)));
      break;
    case FuzzUtility::kAdversarial:
      scenario->utility =
          std::make_unique<AdversarialUtility>(scenario->range, seed);
      break;
  }

  scenario->problem = std::make_unique<core::PlacementProblem>(
      scenario->net, scenario->flows, scenario->shop, *scenario->utility);
  return scenario;
}

std::string scenario_to_json(const Scenario& scenario) {
  std::string out;
  out += "{\n  \"schema\": \"rap.fuzz.scenario.v1\",\n";
  out += "  \"seed\": " + std::to_string(scenario.seed) + ",\n";
  out += "  \"utility\": \"";
  out += fuzz_utility_name(scenario.utility_kind);
  out += "\",\n  \"range\": ";
  append_double(out, scenario.range);
  out += ",\n  \"k\": " + std::to_string(scenario.k) + ",\n";
  out += "  \"shop\": " + std::to_string(scenario.shop) + ",\n";

  out += "  \"nodes\": [";
  for (std::size_t i = 0; i < scenario.net.num_nodes(); ++i) {
    if (i != 0) out += ", ";
    const geo::Point p = scenario.net.position(static_cast<graph::NodeId>(i));
    out += "[";
    append_double(out, p.x);
    out += ", ";
    append_double(out, p.y);
    out += "]";
  }
  out += "],\n";

  out += "  \"edges\": [";
  for (std::size_t i = 0; i < scenario.net.num_edges(); ++i) {
    if (i != 0) out += ", ";
    const graph::Edge& e = scenario.net.edge(static_cast<graph::EdgeId>(i));
    // Appended piecewise: GCC 12's -Werror=restrict misfires on the
    // operator+(const char*, std::string&&) chain at -O3.
    out += "[";
    out += std::to_string(e.from);
    out += ", ";
    out += std::to_string(e.to);
    out += ", ";
    append_double(out, e.length);
    out += "]";
  }
  out += "],\n";

  out += "  \"flows\": [\n";
  for (std::size_t f = 0; f < scenario.flows.size(); ++f) {
    const traffic::TrafficFlow& flow = scenario.flows[f];
    out += "    {\"path\": [";
    for (std::size_t i = 0; i < flow.path.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(flow.path[i]);
    }
    out += "], \"vehicles\": ";
    append_double(out, flow.daily_vehicles);
    out += ", \"passengers\": ";
    append_double(out, flow.passengers_per_vehicle);
    out += ", \"alpha\": ";
    append_double(out, flow.alpha);
    out += "}";
    if (f + 1 < scenario.flows.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace rap::check
