// Parity of the range-pruned PlacementProblem against the full incidence.
//
// PlacementProblem keeps a (flow, node) entry only when the flow's detour at
// the node is within the utility's range D. A dropped entry attracts exactly
// 0 customers, and any entry that could beat it has a smaller detour, so no
// algorithm may see a difference. The reference here is
// fixed_path_coverage(..., graph::kUnreachable) — every pass kept — with the
// same customers(). On seeded grids, a metro-like grid and the Seattle/Dublin
// presets, under the paper's three utilities and the fuzzer's step and
// non-monotone families, every algorithm must return the same placement,
// a bitwise-equal objective and the same number of gain evaluations.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/check/scenario.h"
#include "src/citygen/grid_city.h"
#include "src/core/baselines.h"
#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/greedy.h"
#include "src/core/lazy_greedy.h"
#include "src/core/problem.h"
#include "src/exact/bound.h"
#include "src/obs/telemetry.h"
#include "src/serve/scenario_cache.h"
#include "src/serve/session.h"
#include "src/util/rng.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The unpruned reference: the fixed-path table over the same flows and
/// utility with every pass kept, so its customers() equal `pruned`'s.
CoverageModel full_index(const PlacementProblem& pruned,
                         const std::vector<traffic::TrafficFlow>& flows,
                         const traffic::DetourSource& detours) {
  return fixed_path_coverage(pruned.network(), flows, pruned.shop(),
                             pruned.utility(), detours, graph::kUnreachable);
}

struct Instance {
  std::string name;
  graph::RoadNetwork net;
  std::vector<traffic::TrafficFlow> flows;
  graph::NodeId shop = graph::kInvalidNode;
  double range = 0.0;
};

/// Small irregular unit grids with a range of a few blocks.
Instance seeded_grid(std::uint64_t seed) {
  util::Rng rng(seed * 6151 + 3);
  Instance out;
  out.name = "grid seed " + std::to_string(seed);
  const std::size_t cols = 5 + rng.next_below(4);
  const std::size_t rows = 5 + rng.next_below(4);
  out.net = testing::random_network(cols, rows, rng.next_below(10), rng);
  out.flows = testing::random_flows(out.net, 20 + rng.next_below(30), rng,
                                    0.2 + 0.8 * rng.next_double());
  out.shop = static_cast<graph::NodeId>(rng.next_below(out.net.num_nodes()));
  out.range = 1.5 + 3.0 * rng.next_double();
  return out;
}

/// A 30x30 grid of 100-ft blocks with a 300-ft range: most passes are far
/// beyond D, as on a metro-scale city.
Instance metro_like_grid() {
  Instance out;
  out.name = "metro-like grid";
  out.net = citygen::GridCity({30, 30, 100.0, {0.0, 0.0}}).network();
  util::Rng rng(2024);
  out.flows = testing::random_flows(out.net, 150, rng, 0.05);
  out.shop = 15 * 30 + 15;
  out.range = 300.0;
  return out;
}

/// A serve preset city ("seattle" or "dublin"), range 2,500 ft.
std::shared_ptr<const serve::ServeScenario> preset_city(
    const std::string& city) {
  serve::ScenarioSpec spec;
  spec.city = city;
  spec.seed = 3;
  spec.journeys = 40;
  spec.utility = "linear";
  spec.range = 2'500.0;
  return serve::build_scenario(spec, serve::scenario_key(spec));
}

Instance from_preset(const std::string& city) {
  const auto scenario = preset_city(city);
  Instance out;
  out.name = city;
  out.net = scenario->net;
  out.flows = scenario->flows;
  out.shop = scenario->shop;
  out.range = scenario->utility->range();
  return out;
}

std::vector<std::unique_ptr<traffic::UtilityFunction>> utilities(
    double range) {
  std::vector<std::unique_ptr<traffic::UtilityFunction>> out;
  out.push_back(std::make_unique<traffic::ThresholdUtility>(range));
  out.push_back(std::make_unique<traffic::LinearUtility>(range));
  out.push_back(std::make_unique<traffic::SqrtUtility>(range));
  out.push_back(std::make_unique<check::StepUtility>(range, 3));
  out.push_back(std::make_unique<check::AdversarialUtility>(range, 99));
  return out;
}

void expect_same(const PlacementResult& got, const PlacementResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.nodes, want.nodes) << what;
  EXPECT_EQ(bits(got.customers), bits(want.customers)) << what;
}

/// Runs `solve` on `model` under fresh telemetry; returns its result and
/// the named gain-evaluation counter.
template <typename Solve>
std::pair<PlacementResult, std::uint64_t> counted(const CoverageModel& model,
                                                  const char* counter,
                                                  const Solve& solve) {
  obs::Telemetry telemetry;
  PlacementResult result;
  {
    const obs::TelemetryScope scope(telemetry);
    result = solve(model);
  }
  return {result, telemetry.metrics.counter(counter).value()};
}

/// Every pruned reach list is the full list minus the entries beyond D.
/// Returns the entries kept.
std::size_t check_index(const PlacementProblem& pruned,
                        const CoverageModel& full, double range,
                        const std::string& what) {
  std::size_t kept = 0;
  for (graph::NodeId v = 0; v < pruned.num_nodes(); ++v) {
    std::vector<traffic::NodeIncidence> want;
    for (const traffic::NodeIncidence& entry : full.reach_at(v)) {
      if (entry.detour <= range) want.push_back(entry);
    }
    const auto got = pruned.reach_at(v);
    EXPECT_EQ(got.size(), want.size()) << what << " node " << v;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].flow, want[i].flow) << what << " node " << v;
      EXPECT_EQ(bits(got[i].detour), bits(want[i].detour))
          << what << " node " << v;
    }
    kept += got.size();
  }
  EXPECT_EQ(kept, pruned.num_entries()) << what;
  return kept;
}

/// Every algorithm on `pruned` against the same algorithm on `full`, both
/// built from `flows`.
void check_algorithms(const PlacementProblem& pruned,
                      const CoverageModel& full,
                      const std::vector<traffic::TrafficFlow>& flows,
                      bool monotone, bool exact, const std::string& what) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{6}}) {
    const std::string at = what + " k=" + std::to_string(k);
    const auto greedy = [k](const CoverageModel& m) {
      return greedy_coverage_placement(m, k);
    };
    const auto [g_pruned, g_pruned_evals] =
        counted(pruned, "greedy.gain_evaluations", greedy);
    const auto [g_full, g_full_evals] =
        counted(full, "greedy.gain_evaluations", greedy);
    expect_same(g_pruned, g_full, at + " greedy");
    EXPECT_EQ(g_pruned_evals, g_full_evals) << at << " greedy";

    const auto composite = [k](const CoverageModel& m) {
      return composite_greedy_placement(m, k);
    };
    const auto [c_pruned, c_pruned_evals] =
        counted(pruned, "composite_greedy.gain_evaluations", composite);
    const auto [c_full, c_full_evals] =
        counted(full, "composite_greedy.gain_evaluations", composite);
    expect_same(c_pruned, c_full, at + " composite");
    EXPECT_EQ(c_pruned_evals, c_full_evals) << at << " composite";

    LazyGreedyStats lazy_pruned;
    LazyGreedyStats lazy_full;
    expect_same(lazy_marginal_greedy_placement(pruned, k, &lazy_pruned),
                lazy_marginal_greedy_placement(full, k, &lazy_full),
                at + " lazy marginal");
    EXPECT_EQ(lazy_pruned.gain_evaluations, lazy_full.gain_evaluations) << at;
    EXPECT_EQ(lazy_pruned.heap_pops, lazy_full.heap_pops) << at;

    const traffic::PassingTraffic passing =
        traffic::passing_traffic(pruned.network(), flows);
    expect_same(max_cardinality_placement(pruned, passing, k),
                max_cardinality_placement(full, passing, k),
                at + " max cardinality");
    expect_same(max_vehicles_placement(pruned, passing, k),
                max_vehicles_placement(full, passing, k), at + " max vehicles");
    expect_same(max_customers_placement(pruned, k),
                max_customers_placement(full, k), at + " max customers");

    if (exact) {
      exact::BoundOptions options;
      options.monotone_utility = monotone;
      const exact::Bound b_pruned = exact::certified_upper_bound(pruned, k,
                                                                 options);
      const exact::Bound b_full = exact::certified_upper_bound(full, k,
                                                               options);
      EXPECT_EQ(bits(b_pruned.value), bits(b_full.value)) << at << " bound";
      EXPECT_EQ(b_pruned.kind, b_full.kind) << at << " bound";
      EXPECT_EQ(b_pruned.iterations, b_full.iterations) << at << " bound";
      EXPECT_EQ(b_pruned.optimal, b_full.optimal) << at << " bound";
      EXPECT_EQ(b_pruned.certificate.nodes, b_full.certificate.nodes) << at;
      EXPECT_EQ(bits(b_pruned.certificate.customers),
                bits(b_full.certificate.customers))
          << at << " bound";
    }
  }

  // Objectives of seeded random placements, including repeated nodes.
  util::Rng rng(pruned.num_nodes() * 31 + pruned.num_flows());
  for (int trial = 0; trial < 20; ++trial) {
    Placement nodes;
    const std::size_t size = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < size; ++i) {
      nodes.push_back(
          static_cast<graph::NodeId>(rng.next_below(pruned.num_nodes())));
    }
    EXPECT_EQ(bits(evaluate_placement(pruned, nodes)),
              bits(evaluate_placement(full, nodes)))
        << what << " evaluate trial " << trial;
  }
}

/// Checks every utility family on `instance`; returns the entries the
/// pruned and full indexes hold under the linear utility.
std::pair<std::size_t, std::size_t> check_instance(const Instance& instance,
                                                   bool exact) {
  const traffic::DetourCalculator detours(instance.net, instance.shop);
  std::pair<std::size_t, std::size_t> linear_entries;
  for (const auto& utility : utilities(instance.range)) {
    const std::string what = instance.name + " " + utility->name();
    const PlacementProblem pruned(instance.net, instance.flows, instance.shop,
                                  *utility);
    const CoverageModel full = full_index(pruned, instance.flows, detours);
    const std::size_t kept = check_index(pruned, full, instance.range, what);
    if (utility->name() == "linear") {
      linear_entries = {kept, full.num_entries()};
    }
    check_algorithms(pruned, full, instance.flows,
                     utility->name() != "adversarial", exact, what);
  }
  return linear_entries;
}

TEST(PrunedIncidenceParity, SeededGrids) {
  std::size_t dropped = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto [kept, all] = check_instance(seeded_grid(seed), true);
    dropped += all - kept;
  }
  EXPECT_GT(dropped, 0u);  // the ranges really pruned something
}

TEST(PrunedIncidenceParity, MetroLikeGridKeepsFewerEntries) {
  const auto [kept, all] = check_instance(metro_like_grid(), false);
  EXPECT_LT(kept, all);
  EXPECT_LT(kept * 2, all);  // most passes are beyond D
}

TEST(PrunedIncidenceParity, SeattleAndDublin) {
  for (const char* city : {"seattle", "dublin"}) {
    const auto [kept, all] = check_instance(from_preset(city), false);
    EXPECT_LE(kept, all) << city;
  }
}

/// Session::place after each op of a seeded delta stream, against the same
/// warm-start engine driven by hand over the full index.
void check_session(const std::shared_ptr<const serve::ServeScenario>& scenario,
                   std::uint64_t seed) {
  serve::Session session(scenario);
  std::vector<traffic::TrafficFlow> flows = scenario->flows;
  serve::WarmState warm;
  util::Rng rng(seed);
  const graph::RoadNetwork& net = scenario->net;
  std::size_t deltas = 0;
  for (int round = 0; round < 12; ++round) {
    const std::size_t k = 1 + rng.next_below(6);
    const PlacementProblem weights(
        net, flows, scenario->shop, *scenario->utility,
        std::make_unique<serve::SharedDetours>(scenario->detours));
    const CoverageModel full =
        full_index(weights, flows, *scenario->detours);
    const serve::WarmStartResult got = session.place(k);
    const serve::WarmStartResult want =
        serve::warm_start_marginal_greedy(full, k, warm);
    const std::string at =
        scenario->summary + " round " + std::to_string(round);
    expect_same(got.placement, want.placement, at);
    EXPECT_EQ(got.gain_evaluations, want.gain_evaluations) << at;
    EXPECT_EQ(got.reused, want.reused) << at;
    EXPECT_EQ(got.fell_back, want.fell_back) << at;
    EXPECT_EQ(bits(session.evaluate(got.placement.nodes)),
              bits(evaluate_placement(full, got.placement.nodes)))
        << at;

    serve::DeltaOp op;
    switch (rng.next_below(3)) {
      case 0: {
        const auto origin =
            static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
        const auto destination =
            static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
        if (origin == destination) continue;
        op.kind = serve::DeltaOp::Kind::kAddFlow;
        try {
          op.flow = traffic::make_shortest_path_flow(
              net, origin, destination, 1.0 + 20.0 * rng.next_double(), 2.0,
              0.001 + 0.5 * rng.next_double());
        } catch (const std::invalid_argument&) {
          continue;  // unreachable pair
        }
        break;
      }
      case 1:
        if (flows.empty()) continue;
        op.kind = serve::DeltaOp::Kind::kRemoveFlow;
        op.index = rng.next_below(flows.size());
        break;
      default:
        if (flows.empty()) continue;
        op.kind = serve::DeltaOp::Kind::kScaleFlow;
        op.index = rng.next_below(flows.size());
        op.factor = 0.25 + 2.75 * rng.next_double();
        break;
    }
    serve::apply_delta_bound(warm, op, flows, *scenario->utility);
    session.apply_delta(op);
    switch (op.kind) {
      case serve::DeltaOp::Kind::kAddFlow:
        flows.push_back(op.flow);
        break;
      case serve::DeltaOp::Kind::kRemoveFlow:
        flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(op.index));
        break;
      case serve::DeltaOp::Kind::kScaleFlow:
        flows[op.index].daily_vehicles *= op.factor;
        break;
    }
    ++deltas;
  }
  EXPECT_GT(deltas, 5u);
}

TEST(PrunedIncidenceParity, SessionOverADeltaStream) {
  check_session(preset_city("seattle"), 11);
  check_session(preset_city("dublin"), 12);
}

}  // namespace
}  // namespace rap::core
