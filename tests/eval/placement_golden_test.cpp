// Golden for the paper's evaluation path: eval::run_experiment on a small
// Seattle-like workload, in the general scenario (fixed paths) and in the
// Manhattan scenario (flexible routing, two-stage Algorithms 3/4 included),
// pinned bit for bit. Every summary field is written as a hexfloat and
// compared with the committed reference tests/eval/placement_golden.txt.
// ctest runs the suite once at RAP_THREADS=1 and once at RAP_THREADS=4.
//
// The reference changes only when a placement is meant to change. To
// regenerate it, run the binary with RAP_GOLDEN_UPDATE=1.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/eval/runner.h"
#include "src/serve/scenario_cache.h"

namespace rap::eval {
namespace {

std::vector<AlgorithmId> manhattan_algorithms() {
  std::vector<AlgorithmId> out;
  out.push_back(AlgorithmId::kTwoStageCorners);
  out.push_back(AlgorithmId::kTwoStageMidpoints);
  out.push_back(AlgorithmId::kGreedyCoverage);
  out.push_back(AlgorithmId::kCompositeGreedy);
  out.push_back(AlgorithmId::kMaxCustomers);
  out.push_back(AlgorithmId::kRandom);
  return out;
}

/// One line per (config, algorithm, k): every util::Summary field.
std::string golden_text() {
  serve::ScenarioSpec spec;
  spec.city = "seattle";
  spec.seed = 3;
  spec.journeys = 40;
  const auto scenario = serve::build_scenario(spec, serve::scenario_key(spec));
  const Workload workload =
      make_workload(scenario->net, scenario->flows, "seattle");

  std::ostringstream out;
  out << std::hexfloat;
  for (const bool manhattan : {false, true}) {
    for (const traffic::UtilityKind kind :
         {traffic::UtilityKind::kThreshold, traffic::UtilityKind::kLinear}) {
      for (const double range : {2'500.0, 1'000.0}) {
        ExperimentConfig config;
        config.name = std::string(manhattan ? "manhattan" : "general") +
                      (kind == traffic::UtilityKind::kThreshold ? "-threshold"
                                                                : "-linear") +
                      "-d" + std::to_string(static_cast<int>(range));
        config.utility = kind;
        config.range = range;
        config.repetitions = 6;
        config.seed = 5;
        config.threads = 0;  // the ambient RAP_THREADS
        config.manhattan_scenario = manhattan;
        if (manhattan) config.algorithms = manhattan_algorithms();
        const ExperimentResult result = run_experiment(workload, config);
        for (const SeriesResult& series : result.series) {
          for (std::size_t ki = 0; ki < config.ks.size(); ++ki) {
            const util::Summary& s = series.by_k[ki];
            out << config.name << ' ' << to_string(series.algorithm)
                << " k=" << config.ks[ki] << " count=" << s.count
                << " mean=" << s.mean << " stddev=" << s.stddev
                << " stderr=" << s.stderr_mean << " min=" << s.min
                << " max=" << s.max << " ci95=" << s.ci95_halfwidth << '\n';
          }
        }
      }
    }
  }
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(PlacementGolden, SeattleGeneralAndManhattanScenarios) {
  const std::string got = golden_text();
  const char* update = std::getenv("RAP_GOLDEN_UPDATE");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream(RAP_GOLDEN_FILE, std::ios::binary) << got;
    return;
  }
  std::ifstream file(RAP_GOLDEN_FILE, std::ios::binary);
  ASSERT_TRUE(file) << "missing reference " << RAP_GOLDEN_FILE;
  std::ostringstream want;
  want << file.rdbuf();

  const std::vector<std::string> want_lines = lines_of(want.str());
  const std::vector<std::string> got_lines = lines_of(got);
  ASSERT_EQ(got_lines.size(), want_lines.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got_lines.size() && mismatches < 10; ++i) {
    if (got_lines[i] == want_lines[i]) continue;
    ++mismatches;
    ADD_FAILURE() << "line " << i + 1 << "\n  want " << want_lines[i]
                  << "\n  got  " << got_lines[i];
  }
  EXPECT_EQ(got, want.str());
}

}  // namespace
}  // namespace rap::eval
