// Micro-benchmarks backing the paper's complexity claims. Algorithms 1 and
// 2 are stated as O(|V|^3 + k |V| |T|): the |V|^3 term is the all-pairs
// shortest-path preprocessing (here per-shop Dijkstras + the incidence
// build, asymptotically cheaper on sparse road graphs), the k |V| |T| term
// the greedy sweep. These benches sweep |V|, |T| and k independently so the
// scaling of each stage is visible.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/citygen/grid_city.h"
#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/greedy.h"
#include "src/graph/dijkstra.h"
#include "src/manhattan/flexible_eval.h"
#include "src/obs/telemetry.h"
#include "src/traffic/utility.h"
#include "src/util/rng.h"

namespace {

using namespace rap;

graph::RoadNetwork make_city(std::size_t side) {
  return citygen::GridCity({side, side, 500.0, {0.0, 0.0}}).network();
}

std::vector<traffic::TrafficFlow> make_flows(const graph::RoadNetwork& net,
                                             std::size_t count,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<traffic::TrafficFlow> flows;
  while (flows.size() < count) {
    const auto i = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
    const auto j = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
    if (i == j) continue;
    flows.push_back(
        traffic::make_shortest_path_flow(net, i, j, 10.0, 100.0, 0.001));
  }
  return flows;
}

void BM_DijkstraSingleSource(benchmark::State& state) {
  const auto net = make_city(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::dijkstra(net, 0));
  }
  state.SetComplexityN(static_cast<std::int64_t>(net.num_nodes()));
}
BENCHMARK(BM_DijkstraSingleSource)->Arg(10)->Arg(20)->Arg(40)->Complexity();

void BM_ProblemBuild(benchmark::State& state) {
  const auto net = make_city(15);
  const auto flows = make_flows(net, static_cast<std::size_t>(state.range(0)), 1);
  const traffic::LinearUtility utility(4'000.0);
  for (auto _ : state) {
    const core::PlacementProblem problem(net, flows, 7, utility);
    benchmark::DoNotOptimize(&problem);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ProblemBuild)->Arg(50)->Arg(100)->Arg(200)->Complexity();

// Greedy sweep cost vs k (the k |V| |T| term).
void BM_GreedyCoverageVsK(benchmark::State& state) {
  const auto net = make_city(15);
  const auto flows = make_flows(net, 150, 2);
  const traffic::ThresholdUtility utility(4'000.0);
  const core::PlacementProblem problem(net, flows, 7, utility);
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_coverage_placement(
        problem, static_cast<std::size_t>(state.range(0)),
        {.stop_when_no_gain = false}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedyCoverageVsK)->Arg(2)->Arg(8)->Arg(32)->Complexity();

void BM_CompositeGreedyVsK(benchmark::State& state) {
  const auto net = make_city(15);
  const auto flows = make_flows(net, 150, 3);
  const traffic::LinearUtility utility(4'000.0);
  const core::PlacementProblem problem(net, flows, 7, utility);
  for (auto _ : state) {
    benchmark::DoNotOptimize(composite_greedy_placement(
        problem, static_cast<std::size_t>(state.range(0)),
        {.stop_when_no_gain = false}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompositeGreedyVsK)->Arg(2)->Arg(8)->Arg(32)->Complexity();

// Greedy sweep cost vs |T| at fixed k.
void BM_CompositeGreedyVsFlows(benchmark::State& state) {
  const auto net = make_city(15);
  const auto flows =
      make_flows(net, static_cast<std::size_t>(state.range(0)), 4);
  const traffic::LinearUtility utility(4'000.0);
  const core::PlacementProblem problem(net, flows, 7, utility);
  for (auto _ : state) {
    benchmark::DoNotOptimize(composite_greedy_placement(problem, 10));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompositeGreedyVsFlows)->Arg(50)->Arg(100)->Arg(200)->Complexity();

// Greedy sweep cost vs |V| at fixed k and |T|.
void BM_CompositeGreedyVsNodes(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const auto net = make_city(side);
  const auto flows = make_flows(net, 100, 5);
  const traffic::LinearUtility utility(4'000.0);
  const core::PlacementProblem problem(net, flows, 0, utility);
  for (auto _ : state) {
    benchmark::DoNotOptimize(composite_greedy_placement(problem, 10));
  }
  state.SetComplexityN(static_cast<std::int64_t>(net.num_nodes()));
}
BENCHMARK(BM_CompositeGreedyVsNodes)->Arg(10)->Arg(15)->Arg(20)->Complexity();

void BM_EvaluatePlacement(benchmark::State& state) {
  const auto net = make_city(15);
  const auto flows = make_flows(net, 150, 6);
  const traffic::LinearUtility utility(4'000.0);
  const core::PlacementProblem problem(net, flows, 7, utility);
  util::Rng rng(7);
  core::Placement placement;
  for (int i = 0; i < 10; ++i) {
    placement.push_back(
        static_cast<graph::NodeId>(rng.next_below(net.num_nodes())));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate_placement(problem, placement));
  }
}
BENCHMARK(BM_EvaluatePlacement);

// Telemetry fast path: micro_algorithms runs without a TelemetryScope, so
// every instrumented kernel above already pays (only) this per-event cost —
// a thread-local load and a branch. These pin the absolute number.
void BM_DisabledTelemetryCounter(benchmark::State& state) {
  for (auto _ : state) {
    obs::add_counter("bench.noop");
  }
}
BENCHMARK(BM_DisabledTelemetryCounter);

void BM_DisabledTelemetrySpan(benchmark::State& state) {
  for (auto _ : state) {
    const obs::Span span("bench.noop");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_DisabledTelemetrySpan);

// Enabled-path comparison point for BM_CompositeGreedyVsK at k = 8.
void BM_CompositeGreedyTelemetryEnabled(benchmark::State& state) {
  const auto net = make_city(15);
  const auto flows = make_flows(net, 150, 3);
  const traffic::LinearUtility utility(4'000.0);
  const core::PlacementProblem problem(net, flows, 7, utility);
  obs::Telemetry telemetry;
  const obs::TelemetryScope scope(telemetry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(composite_greedy_placement(
        problem, 8, {.stop_when_no_gain = false}));
  }
}
BENCHMARK(BM_CompositeGreedyTelemetryEnabled);

// Manhattan-scenario model build: per-endpoint Dijkstras + DAG reach.
void BM_FlexibleProblemBuild(benchmark::State& state) {
  const auto net = make_city(15);
  const auto flows =
      make_flows(net, static_cast<std::size_t>(state.range(0)), 8);
  const traffic::ThresholdUtility utility(4'000.0);
  for (auto _ : state) {
    const manhattan::FlexibleProblem model(net, flows, 7, utility);
    benchmark::DoNotOptimize(&model);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FlexibleProblemBuild)->Arg(25)->Arg(50)->Arg(100)->Complexity();

}  // namespace

BENCHMARK_MAIN();
