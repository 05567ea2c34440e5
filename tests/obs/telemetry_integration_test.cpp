// End-to-end checks for the instrumentation layer: the real placement
// pipeline run under a TelemetryScope must emit the documented schema, the
// parallel experiment runner must merge per-repetition telemetry
// deterministically, and the disabled fast path must cost a negligible
// fraction of an uninstrumented run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "src/citygen/grid_city.h"
#include "src/core/composite_greedy.h"
#include "src/core/lazy_greedy.h"
#include "src/core/problem.h"
#include "src/eval/runner.h"
#include "src/obs/json.h"
#include "src/obs/telemetry.h"
#include "src/traffic/utility.h"
#include "tests/testing/builders.h"

namespace rap::obs {
namespace {

constexpr std::size_t kK = 4;

core::PlacementProblem make_problem(const graph::RoadNetwork& net,
                                    const traffic::UtilityFunction& utility) {
  util::Rng rng(11);
  auto flows = testing::random_flows(net, 40, rng, 0.5);
  return core::PlacementProblem(net, std::move(flows), 0, utility);
}

TEST(TelemetryIntegration, PipelineEmitsDocumentedSchema) {
  const citygen::GridCity city({10, 10, 1.0, {0.0, 0.0}});
  const traffic::LinearUtility utility(8.0);

  Telemetry telemetry;
  {
    const TelemetryScope scope(telemetry);
    const Span pipeline("pipeline");
    const auto problem = [&] {
      const Span span("model_build");
      return make_problem(city.network(), utility);
    }();
    {
      const Span span("placement");
      core::LazyGreedyStats stats;
      (void)core::lazy_marginal_greedy_placement(problem, kK, &stats);
      (void)composite_greedy_placement(problem, kK);
      // The counters are the struct's registry twin.
      EXPECT_EQ(
          telemetry.metrics.counters().at("lazy_greedy.gain_evaluations").value(),
          stats.gain_evaluations);
      EXPECT_EQ(telemetry.metrics.counters().at("lazy_greedy.heap_pops").value(),
                stats.heap_pops);
    }
  }

  const std::string json = to_json(telemetry);
  // Acceptance contract: per-stage spans, algorithm iteration counters
  // (including lazy-greedy gain evaluations), histogram percentiles.
  EXPECT_NE(json.find(R"("schema":"rap.telemetry.v1")"), std::string::npos);
  // Needles built with += appends: GCC 12's -Werror=restrict misfires on
  // the operator+(const char*, std::string&&) chain at -O3.
  for (const char* name :
       {"pipeline", "model_build", "placement", "lazy_greedy",
        "composite_greedy"}) {
    std::string needle = "\"name\":\"";
    needle += name;
    needle += '"';
    EXPECT_NE(json.find(needle), std::string::npos) << "missing span " << name;
  }
  for (const char* counter :
       {"lazy_greedy.gain_evaluations", "lazy_greedy.selections",
        "composite_greedy.iterations", "composite_greedy.gain_evaluations",
        "dijkstra.nodes_settled", "dijkstra.heap_pushes"}) {
    std::string needle = "\"";
    needle += counter;
    needle += "\":";
    EXPECT_NE(json.find(needle), std::string::npos)
        << "missing counter " << counter;
  }
  EXPECT_NE(json.find(R"("placement.selected_gain")"), std::string::npos);
  for (const char* q : {"\"p50\":", "\"p95\":", "\"p99\":"}) {
    EXPECT_NE(json.find(q), std::string::npos);
  }
  EXPECT_EQ(telemetry.metrics.counters()
                .at("lazy_greedy.selections")
                .value(),
            kK);
}

TEST(TelemetryIntegration, ParallelRunnerMergesDeterministically) {
  static const citygen::GridCity city({8, 8, 1.0, {0.0, 0.0}});
  util::Rng rng(5);
  auto flows = testing::random_flows(city.network(), 25, rng, 0.5);
  const eval::Workload workload =
      eval::make_workload(city.network(), std::move(flows), "obs-test");

  eval::ExperimentConfig config;
  config.name = "obs";
  config.ks = {1, 2};
  config.utility = traffic::UtilityKind::kLinear;
  config.range = 8.0;
  config.repetitions = 4;
  config.seed = 3;
  config.algorithms = {eval::AlgorithmId::kCompositeGreedy,
                       eval::AlgorithmId::kGreedyCoverage};

  const auto run_with = [&](std::size_t threads) {
    Telemetry telemetry;
    config.threads = threads;
    const TelemetryScope scope(telemetry);
    (void)eval::run_experiment(workload, config);
    return telemetry;
  };

  const Telemetry serial = run_with(1);
  const Telemetry parallel = run_with(2);

  // Each repetition records its own subtree; the merged parent must see all
  // of them regardless of thread count.
  ASSERT_FALSE(serial.trace.empty());
  ASSERT_FALSE(parallel.trace.empty());
  EXPECT_EQ(serial.trace.root().children[0]->name, "repetition");
  EXPECT_EQ(serial.trace.root().children[0]->calls, config.repetitions);
  EXPECT_EQ(parallel.trace.root().children[0]->calls, config.repetitions);

  // Counters are sums of per-repetition work, so serial == parallel exactly.
  ASSERT_FALSE(serial.metrics.counters().empty());
  EXPECT_EQ(serial.metrics.counters().size(),
            parallel.metrics.counters().size());
  for (const auto& [name, counter] : serial.metrics.counters()) {
    EXPECT_EQ(parallel.metrics.counters().at(name).value(), counter.value())
        << "counter " << name << " differs between thread counts";
  }
  EXPECT_GT(
      serial.metrics.counters().at("composite_greedy.iterations").value(), 0u);
}

TEST(TelemetryIntegration, DisabledOverheadIsWithinNoise) {
  ASSERT_EQ(ambient(), nullptr);
  using Clock = std::chrono::steady_clock;
  const auto ns_since = [](Clock::time_point start) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  };

  // Per-event cost of the disabled path: a thread-local load plus a branch.
  constexpr std::uint64_t kOps = 1'000'000;
  const auto fast_path_start = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    add_counter("noop");
    const Span span("noop");
  }
  const double per_event_ns = ns_since(fast_path_start) / kOps;

  // Workload an uninstrumented caller actually runs.
  const citygen::GridCity city({10, 10, 1.0, {0.0, 0.0}});
  const traffic::LinearUtility utility(8.0);
  const core::PlacementProblem problem = make_problem(city.network(), utility);
  (void)composite_greedy_placement(problem, kK);  // warm-up
  const auto run_start = Clock::now();
  (void)composite_greedy_placement(problem, kK);
  const double run_ns = ns_since(run_start);

  // Ambient checks a composite-greedy run performs: one span, one selected-
  // gain observe per selection, one counter flush (overcounted generously).
  const double events = 4.0 * (kK + 4);
  EXPECT_LT(per_event_ns * events, 0.02 * run_ns)
      << "disabled telemetry costs " << per_event_ns << " ns/event over "
      << events << " events vs a " << run_ns << " ns run";
  // And the absolute fast path must stay trivially cheap.
  EXPECT_LT(per_event_ns, 1'000.0);
}

}  // namespace
}  // namespace rap::obs
