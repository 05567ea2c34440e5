#include "src/eval/runner.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/core/baselines.h"
#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/greedy.h"
#include "src/core/problem.h"
#include "src/geo/bbox.h"
#include "src/manhattan/flexible_eval.h"
#include "src/manhattan/two_stage.h"
#include "src/obs/telemetry.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace rap::eval {
namespace {

bool is_two_stage(AlgorithmId id) noexcept {
  return id == AlgorithmId::kTwoStageCorners ||
         id == AlgorithmId::kTwoStageMidpoints;
}

// Placement order of a nested algorithm at budget max_k. MaxCardinality
// and MaxVehicles rank by the traffic passing each node on the flows'
// recorded paths (`passing`), in the Manhattan scenario too.
core::Placement nested_order(AlgorithmId id, const core::CoverageModel& model,
                             const traffic::PassingTraffic& passing,
                             std::size_t max_k, util::Rng& rng) {
  switch (id) {
    case AlgorithmId::kGreedyCoverage:
      return core::greedy_coverage_placement(model, max_k).nodes;
    case AlgorithmId::kCompositeGreedy:
      return core::composite_greedy_placement(model, max_k).nodes;
    case AlgorithmId::kNaiveGreedy:
      return core::naive_marginal_greedy_placement(model, max_k).nodes;
    case AlgorithmId::kMaxCardinality:
      return core::max_cardinality_placement(model, passing, max_k).nodes;
    case AlgorithmId::kMaxVehicles:
      return core::max_vehicles_placement(model, passing, max_k).nodes;
    case AlgorithmId::kMaxCustomers:
      return core::max_customers_placement(model, max_k).nodes;
    case AlgorithmId::kRandom:
      return core::random_placement(model, max_k, rng).nodes;
    case AlgorithmId::kTwoStageCorners:
    case AlgorithmId::kTwoStageMidpoints:
      break;
  }
  throw std::logic_error("nested_order: not a nested algorithm");
}

}  // namespace

Workload make_workload(const graph::RoadNetwork& net,
                       std::vector<traffic::TrafficFlow> flows,
                       std::string name) {
  Workload workload;
  workload.net = &net;
  workload.passing = traffic::passing_traffic(net, flows);
  workload.classes = trace::classify_intersections(workload.passing);
  workload.flows = std::move(flows);
  workload.name = std::move(name);
  return workload;
}

ExperimentResult run_experiment(const Workload& workload,
                                const ExperimentConfig& config) {
  if (workload.net == nullptr) {
    throw std::invalid_argument("run_experiment: workload has no network");
  }
  if (config.ks.empty() || config.algorithms.empty() ||
      config.repetitions == 0) {
    throw std::invalid_argument("run_experiment: empty sweep");
  }
  for (const AlgorithmId id : config.algorithms) {
    if (is_two_stage(id) && !config.manhattan_scenario) {
      throw std::invalid_argument(
          "run_experiment: two-stage algorithms need the Manhattan scenario");
    }
  }
  const std::vector<graph::NodeId> shop_pool =
      trace::nodes_in_class(workload.classes, config.shop_class);
  if (shop_pool.empty()) {
    throw std::invalid_argument(
        "run_experiment: no intersection in the requested shop class");
  }
  const std::size_t max_k =
      *std::max_element(config.ks.begin(), config.ks.end());
  const std::unique_ptr<traffic::UtilityFunction> utility =
      traffic::make_utility(config.utility, config.range);

  // One repetition's raw values, values[alg][k_index]. Repetitions are
  // independent (per-rep forked RNG), so they can run on worker threads;
  // accumulating in repetition order afterwards keeps results bit-identical
  // to the serial path regardless of the thread count.
  //
  // Telemetry follows the same pattern: when the caller has an ambient sink
  // installed, each repetition records into a private Telemetry (worker
  // threads never share a registry) and everything merges back in
  // repetition order after the join.
  obs::Telemetry* const parent_telemetry = obs::ambient();
  std::vector<obs::Telemetry> rep_telemetry(
      parent_telemetry != nullptr ? config.repetitions : 0);
  using RepValues = std::vector<std::vector<double>>;
  const util::Rng root(config.seed);
  const auto run_repetition = [&](std::size_t rep) {
    std::optional<obs::TelemetryScope> telemetry_scope;
    if (parent_telemetry != nullptr) telemetry_scope.emplace(rep_telemetry[rep]);
    const obs::Span rep_span("repetition");
    util::Rng rng = root.fork(rep);
    const graph::NodeId shop = shop_pool[rng.next_below(shop_pool.size())];

    // Build the coverage model for this repetition's shop.
    const core::CoverageModel model = [&]() -> core::CoverageModel {
      const obs::Span span("model_build");
      if (config.manhattan_scenario) {
        return manhattan::FlexibleProblem(*workload.net, workload.flows, shop,
                                          *utility);
      }
      return core::PlacementProblem(*workload.net, workload.flows, shop,
                                    *utility);
    }();
    const geo::BBox region = geo::BBox::centered_square(
        workload.net->position(shop), config.range);

    RepValues values(config.algorithms.size(),
                     std::vector<double>(config.ks.size(), 0.0));
    for (std::size_t a = 0; a < config.algorithms.size(); ++a) {
      const AlgorithmId id = config.algorithms[a];
      const obs::Span alg_span(std::string("algorithm:") + to_string(id));
      if (is_two_stage(id)) {
        const manhattan::TwoStageVariant variant =
            id == AlgorithmId::kTwoStageCorners
                ? manhattan::TwoStageVariant::kCorners
                : manhattan::TwoStageVariant::kMidpoints;
        for (std::size_t ki = 0; ki < config.ks.size(); ++ki) {
          values[a][ki] =
              manhattan::two_stage_network_placement(
                  model, workload.flows, region, config.ks[ki], variant)
                  .customers;
        }
        continue;
      }
      util::Rng alg_rng = rng.fork(1000 + a);
      const core::Placement order =
          nested_order(id, model, workload.passing, max_k, alg_rng);
      const std::vector<double> prefixes = core::prefix_values(model, order);
      for (std::size_t ki = 0; ki < config.ks.size(); ++ki) {
        // Orders shorter than k repeat their final value.
        values[a][ki] = prefixes[std::min(config.ks[ki], order.size())];
      }
    }
    return values;
  };

  std::vector<RepValues> per_rep(config.repetitions);
  // Repetitions dispatch through the shared deterministic pool: one chunk
  // per repetition, each with its own forked RNG stream (root.fork(rep) —
  // the same stream assignment the serial loop uses). Parallel regions
  // inside a repetition (greedy candidate scans) detect they are on a pool
  // worker and run inline, so thread counts compose without
  // oversubscription.
  const std::size_t threads =
      std::min(config.threads == 0 ? util::parallel_config().effective()
                                   : config.threads,
               config.repetitions);
  obs::set_gauge("parallel.threads", static_cast<double>(threads));
  util::parallel_for(
      0, config.repetitions, /*grain=*/1,
      [&](const util::ChunkRange& chunk) {
        for (std::size_t rep = chunk.first; rep < chunk.last; ++rep) {
          per_rep[rep] = run_repetition(rep);
        }
      },
      threads);
  if (parent_telemetry != nullptr) {
    // Repetition order keeps the merged histogram moments deterministic for
    // any thread count, mirroring the value accumulation below.
    for (const obs::Telemetry& t : rep_telemetry) parent_telemetry->merge(t);
  }

  // stats[alg][k_index], accumulated in repetition order.
  std::vector<std::vector<util::RunningStats>> stats(
      config.algorithms.size(),
      std::vector<util::RunningStats>(config.ks.size()));
  for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
    for (std::size_t a = 0; a < config.algorithms.size(); ++a) {
      for (std::size_t ki = 0; ki < config.ks.size(); ++ki) {
        stats[a][ki].add(per_rep[rep][a][ki]);
      }
    }
  }

  ExperimentResult result;
  result.config = config;
  result.series.resize(config.algorithms.size());
  for (std::size_t a = 0; a < config.algorithms.size(); ++a) {
    result.series[a].algorithm = config.algorithms[a];
    result.series[a].by_k.resize(config.ks.size());
    for (std::size_t ki = 0; ki < config.ks.size(); ++ki) {
      const util::RunningStats& s = stats[a][ki];
      util::Summary& summary = result.series[a].by_k[ki];
      summary.count = s.count();
      summary.mean = s.mean();
      summary.stddev = s.stddev();
      summary.stderr_mean = s.stderr_mean();
      summary.min = s.min();
      summary.max = s.max();
      summary.ci95_halfwidth = 1.96 * s.stderr_mean();
    }
  }
  return result;
}

}  // namespace rap::eval
