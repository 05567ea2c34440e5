// Differential determinism suite for the parallel execution engine
// (DESIGN.md §8): every parallel code path — the greedy family's candidate
// scans and the experiment runner's repetition loop — must produce
// *bit-identical* output at threads=1 and threads=4, across three city
// topologies and three seeds. Failures here mean a reduction
// reassociated floats, a tie broke by timing, or an RNG stream moved.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/citygen/grid_city.h"
#include "src/citygen/partial_grid_city.h"
#include "src/citygen/radial_city.h"
#include "src/core/composite_greedy.h"
#include "src/core/greedy.h"
#include "src/core/lazy_greedy.h"
#include "src/core/local_search.h"
#include "src/core/problem.h"
#include "src/eval/runner.h"
#include "src/traffic/utility.h"
#include "src/util/thread_pool.h"
#include "tests/testing/builders.h"

namespace rap {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 17, 4242};

class ConfigGuard {
 public:
  ConfigGuard() : saved_(util::parallel_config()) {}
  ~ConfigGuard() { util::set_parallel_config(saved_); }

 private:
  util::ParallelConfig saved_;
};

struct City {
  std::string name;
  graph::RoadNetwork net;
};

std::vector<City> make_cities(std::uint64_t seed) {
  std::vector<City> cities;
  cities.push_back({"grid", citygen::GridCity({7, 7, 1.0, {0.0, 0.0}}).network()});
  {
    util::Rng rng(seed * 31 + 1);
    citygen::PartialGridSpec spec;
    spec.grid = {8, 8, 1.0, {0.0, 0.0}};
    cities.push_back(
        {"partial-grid", citygen::PartialGridCity(spec, rng).network()});
  }
  {
    util::Rng rng(seed * 31 + 2);
    citygen::RadialSpec spec;
    spec.rings = 4;
    spec.ring_spacing = 1.0;
    cities.push_back({"radial", citygen::build_radial_city(spec, rng)});
  }
  return cities;
}

// Exact double equality (EXPECT_EQ on doubles is bitwise up to -0.0/NaN,
// which these pipelines never produce).
#define EXPECT_BITEQ(a, b) EXPECT_EQ(a, b)

template <typename RunFn>
void expect_identical_placements(const std::string& label, RunFn&& run) {
  util::set_parallel_config({1});
  const core::PlacementResult serial = run();
  util::set_parallel_config({4});
  const core::PlacementResult parallel = run();
  EXPECT_EQ(serial.nodes, parallel.nodes) << label;
  EXPECT_BITEQ(serial.customers, parallel.customers) << label;
}

TEST(ParallelDeterminism, PlacementAlgorithmsAreThreadCountInvariant) {
  const ConfigGuard guard;
  for (const std::uint64_t seed : kSeeds) {
    for (const City& city : make_cities(seed)) {
      util::Rng rng(seed);
      auto flows = testing::random_flows(city.net, 35, rng, 0.5);
      const traffic::LinearUtility utility(8.0);
      const core::PlacementProblem problem(city.net, flows, 0, utility);
      const std::string tag = city.name + " seed=" + std::to_string(seed);
      constexpr std::size_t kK = 5;

      expect_identical_placements(tag + " alg1", [&] {
        return core::greedy_coverage_placement(problem, kK);
      });
      expect_identical_placements(tag + " alg2", [&] {
        return core::composite_greedy_placement(problem, kK);
      });
      expect_identical_placements(tag + " naive", [&] {
        return core::naive_marginal_greedy_placement(problem, kK);
      });
      expect_identical_placements(tag + " lazy-marginal", [&] {
        return core::lazy_marginal_greedy_placement(problem, kK);
      });
      expect_identical_placements(tag + " local-search", [&] {
        return core::greedy_with_local_search(problem, kK).placement;
      });
    }
  }
}

TEST(ParallelDeterminism, RunnerSummariesAreThreadCountInvariant) {
  const ConfigGuard guard;
  util::set_parallel_config({0});
  for (const std::uint64_t seed : kSeeds) {
    for (const City& city : make_cities(seed)) {
      util::Rng rng(seed + 99);
      auto flows = testing::random_flows(city.net, 30, rng, 0.5);
      const eval::Workload workload =
          eval::make_workload(city.net, std::move(flows), city.name);

      eval::ExperimentConfig config;
      config.name = "determinism";
      config.ks = {1, 3, 5};
      config.utility = traffic::UtilityKind::kLinear;
      config.range = 8.0;
      config.repetitions = 6;
      config.seed = seed;
      config.algorithms = {
          eval::AlgorithmId::kGreedyCoverage, eval::AlgorithmId::kCompositeGreedy,
          eval::AlgorithmId::kNaiveGreedy,    eval::AlgorithmId::kMaxCustomers,
          eval::AlgorithmId::kRandom,
      };

      config.threads = 1;
      const eval::ExperimentResult serial = eval::run_experiment(workload, config);
      config.threads = 4;
      const eval::ExperimentResult parallel =
          eval::run_experiment(workload, config);

      ASSERT_EQ(serial.series.size(), parallel.series.size());
      for (std::size_t s = 0; s < serial.series.size(); ++s) {
        for (std::size_t ki = 0; ki < serial.series[s].by_k.size(); ++ki) {
          const util::Summary& a = serial.series[s].by_k[ki];
          const util::Summary& b = parallel.series[s].by_k[ki];
          const std::string tag = city.name + " seed=" + std::to_string(seed) +
                                  " " + to_string(serial.series[s].algorithm) +
                                  " k=" + std::to_string(config.ks[ki]);
          EXPECT_EQ(a.count, b.count) << tag;
          EXPECT_BITEQ(a.mean, b.mean) << tag;
          EXPECT_BITEQ(a.stddev, b.stddev) << tag;
          EXPECT_BITEQ(a.stderr_mean, b.stderr_mean) << tag;
          EXPECT_BITEQ(a.min, b.min) << tag;
          EXPECT_BITEQ(a.max, b.max) << tag;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rap
