#include "src/eval/runner.h"

#include <gtest/gtest.h>

#include "src/citygen/grid_city.h"
#include "tests/testing/builders.h"

namespace rap::eval {
namespace {

Workload small_workload(std::uint64_t seed) {
  static citygen::GridCity city({8, 8, 1.0, {0.0, 0.0}});
  util::Rng rng(seed);
  auto flows = testing::random_flows(city.network(), 25, rng, 0.5);
  return make_workload(city.network(), std::move(flows), "test-city");
}

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.name = "unit";
  config.ks = {1, 2, 4};
  config.utility = traffic::UtilityKind::kLinear;
  config.range = 8.0;
  config.shop_class = trace::LocationClass::kCity;
  config.repetitions = 5;
  config.seed = 7;
  return config;
}

TEST(MakeWorkload, ClassifiesIntersections) {
  const Workload w = small_workload(1);
  EXPECT_EQ(w.classes.size(), w.net->num_nodes());
  EXPECT_EQ(w.name, "test-city");
  EXPECT_FALSE(trace::nodes_in_class(w.classes, trace::LocationClass::kCity).empty());
}

TEST(RunExperiment, ShapesMatchConfig) {
  const Workload w = small_workload(2);
  const ExperimentConfig config = small_config();
  const ExperimentResult result = run_experiment(w, config);
  ASSERT_EQ(result.series.size(), config.algorithms.size());
  for (const SeriesResult& series : result.series) {
    ASSERT_EQ(series.by_k.size(), config.ks.size());
    for (const util::Summary& s : series.by_k) {
      EXPECT_EQ(s.count, config.repetitions);
      EXPECT_GE(s.mean, 0.0);
    }
  }
}

TEST(RunExperiment, DeterministicForSameSeed) {
  const Workload w = small_workload(3);
  const ExperimentConfig config = small_config();
  const ExperimentResult a = run_experiment(w, config);
  const ExperimentResult b = run_experiment(w, config);
  for (std::size_t s = 0; s < a.series.size(); ++s) {
    for (std::size_t ki = 0; ki < a.series[s].by_k.size(); ++ki) {
      EXPECT_DOUBLE_EQ(a.series[s].by_k[ki].mean, b.series[s].by_k[ki].mean);
    }
  }
}

TEST(RunExperiment, DifferentSeedsDiffer) {
  const Workload w = small_workload(4);
  ExperimentConfig config = small_config();
  const ExperimentResult a = run_experiment(w, config);
  config.seed = 99;
  const ExperimentResult b = run_experiment(w, config);
  bool any_difference = false;
  for (std::size_t s = 0; s < a.series.size() && !any_difference; ++s) {
    for (std::size_t ki = 0; ki < a.series[s].by_k.size(); ++ki) {
      any_difference |=
          a.series[s].by_k[ki].mean != b.series[s].by_k[ki].mean;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(RunExperiment, MeansMonotoneInK) {
  // Each algorithm's mean is non-decreasing in k (placements are nested or
  // re-run with a larger budget).
  const Workload w = small_workload(5);
  const ExperimentResult result = run_experiment(w, small_config());
  for (const SeriesResult& series : result.series) {
    for (std::size_t ki = 1; ki < series.by_k.size(); ++ki) {
      EXPECT_GE(series.by_k[ki].mean + 1e-9, series.by_k[ki - 1].mean)
          << to_string(series.algorithm);
    }
  }
}

TEST(RunExperiment, Algorithm2DominatesBaselinesHere) {
  const Workload w = small_workload(6);
  ExperimentConfig config = small_config();
  config.repetitions = 10;
  const ExperimentResult result = run_experiment(w, config);
  const auto series_of = [&](AlgorithmId id) -> const SeriesResult& {
    for (const SeriesResult& s : result.series) {
      if (s.algorithm == id) return s;
    }
    throw std::logic_error("series not found");
  };
  const SeriesResult& alg2 = series_of(AlgorithmId::kCompositeGreedy);
  for (const AlgorithmId baseline :
       {AlgorithmId::kMaxCardinality, AlgorithmId::kMaxVehicles,
        AlgorithmId::kRandom}) {
    const SeriesResult& other = series_of(baseline);
    for (std::size_t ki = 0; ki < alg2.by_k.size(); ++ki) {
      EXPECT_GE(alg2.by_k[ki].mean + 1e-9, other.by_k[ki].mean)
          << to_string(baseline) << " at k index " << ki;
    }
  }
}

TEST(RunExperiment, ManhattanScenarioRunsTwoStage) {
  const Workload w = small_workload(7);
  ExperimentConfig config = small_config();
  config.manhattan_scenario = true;
  config.repetitions = 3;
  config.ks = {2, 5, 6};
  config.algorithms = {AlgorithmId::kTwoStageCorners,
                       AlgorithmId::kTwoStageMidpoints,
                       AlgorithmId::kCompositeGreedy};
  const ExperimentResult result = run_experiment(w, config);
  ASSERT_EQ(result.series.size(), 3u);
  for (const SeriesResult& series : result.series) {
    EXPECT_EQ(series.by_k.size(), 3u);
  }
}

TEST(RunExperiment, ManhattanBeatsGeneralScenario) {
  // Fig. 13 vs Fig. 12: route flexibility attracts at least as many
  // customers for the same algorithm and settings.
  const Workload w = small_workload(8);
  ExperimentConfig config = small_config();
  config.algorithms = {AlgorithmId::kCompositeGreedy};
  config.repetitions = 8;
  const ExperimentResult general = run_experiment(w, config);
  config.manhattan_scenario = true;
  const ExperimentResult manhattan = run_experiment(w, config);
  for (std::size_t ki = 0; ki < config.ks.size(); ++ki) {
    EXPECT_GE(manhattan.series[0].by_k[ki].mean + 1e-9,
              general.series[0].by_k[ki].mean);
  }
}

TEST(RunExperiment, Validation) {
  const Workload w = small_workload(9);
  ExperimentConfig config = small_config();
  config.ks.clear();
  EXPECT_THROW(run_experiment(w, config), std::invalid_argument);
  config = small_config();
  config.repetitions = 0;
  EXPECT_THROW(run_experiment(w, config), std::invalid_argument);
  config = small_config();
  config.algorithms = {AlgorithmId::kTwoStageCorners};  // not Manhattan
  EXPECT_THROW(run_experiment(w, config), std::invalid_argument);
  Workload empty;
  EXPECT_THROW(run_experiment(empty, small_config()), std::invalid_argument);
}

TEST(AlgorithmId, ToStringCovers) {
  EXPECT_STREQ(to_string(AlgorithmId::kGreedyCoverage), "Algorithm1");
  EXPECT_STREQ(to_string(AlgorithmId::kCompositeGreedy), "Algorithm2");
  EXPECT_STREQ(to_string(AlgorithmId::kTwoStageCorners), "Algorithm3");
  EXPECT_STREQ(to_string(AlgorithmId::kTwoStageMidpoints), "Algorithm4");
  EXPECT_STREQ(to_string(AlgorithmId::kNaiveGreedy), "NaiveGreedy");
  EXPECT_STREQ(to_string(AlgorithmId::kMaxCardinality), "MaxCardinality");
  EXPECT_STREQ(to_string(AlgorithmId::kMaxVehicles), "MaxVehicles");
  EXPECT_STREQ(to_string(AlgorithmId::kMaxCustomers), "MaxCustomers");
  EXPECT_STREQ(to_string(AlgorithmId::kRandom), "Random");
}


TEST(RunExperiment, PrefixTrickMatchesIndependentRuns) {
  // The runner sweeps k via placement prefixes; independent per-k runs of
  // the same algorithm must produce identical means.
  const Workload w = small_workload(11);
  ExperimentConfig swept = small_config();
  swept.algorithms = {AlgorithmId::kCompositeGreedy};
  swept.ks = {1, 2, 4};
  const ExperimentResult together = run_experiment(w, swept);
  for (std::size_t ki = 0; ki < swept.ks.size(); ++ki) {
    ExperimentConfig single = swept;
    single.ks = {swept.ks[ki]};
    const ExperimentResult alone = run_experiment(w, single);
    EXPECT_DOUBLE_EQ(together.series[0].by_k[ki].mean,
                     alone.series[0].by_k[0].mean)
        << "k=" << swept.ks[ki];
  }
}

TEST(RunExperiment, SuburbShopsAttractFewerThanCenterShops) {
  // The Fig. 11 location effect at miniature scale.
  const Workload w = small_workload(12);
  ExperimentConfig config = small_config();
  config.algorithms = {AlgorithmId::kCompositeGreedy};
  config.repetitions = 10;
  config.shop_class = trace::LocationClass::kCityCenter;
  const double center = run_experiment(w, config).series[0].by_k.back().mean;
  config.shop_class = trace::LocationClass::kSuburb;
  const double suburb = run_experiment(w, config).series[0].by_k.back().mean;
  EXPECT_GT(center, suburb);
}


TEST(RunExperiment, ThreadedIdenticalToSerial) {
  const Workload w = small_workload(13);
  ExperimentConfig config = small_config();
  config.repetitions = 12;
  config.threads = 1;
  const ExperimentResult serial = run_experiment(w, config);
  config.threads = 4;
  const ExperimentResult threaded = run_experiment(w, config);
  for (std::size_t s = 0; s < serial.series.size(); ++s) {
    for (std::size_t ki = 0; ki < serial.series[s].by_k.size(); ++ki) {
      EXPECT_DOUBLE_EQ(serial.series[s].by_k[ki].mean,
                       threaded.series[s].by_k[ki].mean);
      EXPECT_DOUBLE_EQ(serial.series[s].by_k[ki].stddev,
                       threaded.series[s].by_k[ki].stddev);
    }
  }
}

TEST(RunExperiment, HardwareThreadsOption) {
  const Workload w = small_workload(14);
  ExperimentConfig config = small_config();
  config.repetitions = 4;
  config.threads = 0;  // hardware concurrency
  EXPECT_NO_THROW(run_experiment(w, config));
}

}  // namespace
}  // namespace rap::eval
