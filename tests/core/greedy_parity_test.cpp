// Regression suite for the lazy/eager parity fix and the unified budget
// contract (core/k_policy.h).
//
// Pre-fix, the lazy variants took no options struct: they always stopped at
// zero gain, so any caller padding to exactly k RAPs (stop_when_no_gain =
// false) diverged from the eager greedy it documents itself against. These
// tests pin the fixed behaviour: bit-identical placements AND values under
// both option settings, zero-gain padding included.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/core/composite_greedy.h"
#include "src/core/exhaustive.h"
#include "src/core/greedy.h"
#include "src/core/lazy_greedy.h"
#include "src/obs/telemetry.h"
#include "src/traffic/utility.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

using rap::testing::Fig4;

class GreedyParity : public ::testing::Test {
 protected:
  GreedyParity()
      : threshold_(Fig4::threshold),
        linear_(Fig4::threshold),
        threshold_problem_(fig_.net, fig_.flows, Fig4::shop, threshold_),
        linear_problem_(fig_.net, fig_.flows, Fig4::shop, linear_) {}

  Fig4 fig_;
  traffic::ThresholdUtility threshold_;
  traffic::LinearUtility linear_;
  PlacementProblem threshold_problem_;
  PlacementProblem linear_problem_;
};

void expect_bitwise_equal(const PlacementResult& a, const PlacementResult& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.customers, b.customers);  // bitwise, not NEAR
}

TEST_F(GreedyParity, LazyCoveragePadsExactlyLikeEager) {
  // Fig. 4 covers every flow with two RAPs, so k = 5 forces three zero-gain
  // padding picks — the divergence the fix closes. Under the threshold
  // utility the marginal gain is Algorithm 1's uncovered gain, so the lazy
  // marginal greedy must pad exactly like the eager coverage greedy.
  const GreedyOptions pad{.stop_when_no_gain = false};
  const PlacementResult eager =
      greedy_coverage_placement(threshold_problem_, 5, pad);
  const PlacementResult lazy = lazy_marginal_greedy_placement(
      threshold_problem_, 5, nullptr, {.stop_when_no_gain = false});
  ASSERT_EQ(eager.nodes.size(), 5u);
  expect_bitwise_equal(eager, lazy);
  // Padding picks are the zero-gain nodes in ascending id order, appended
  // after the productive prefix.
  const PlacementResult stopped = greedy_coverage_placement(threshold_problem_, 5);
  ASSERT_EQ(stopped.nodes.size(), 2u);
  EXPECT_EQ(Placement(eager.nodes.begin(), eager.nodes.begin() + 2),
            stopped.nodes);
  EXPECT_EQ(eager.customers, stopped.customers);
}

TEST_F(GreedyParity, LazyMarginalPadsExactlyLikeEager) {
  const CompositeGreedyOptions pad{.stop_when_no_gain = false};
  for (std::size_t k = 1; k <= 6; ++k) {
    expect_bitwise_equal(
        naive_marginal_greedy_placement(linear_problem_, k, pad),
        lazy_marginal_greedy_placement(linear_problem_, k, nullptr, pad));
  }
}

TEST_F(GreedyParity, DefaultOptionsStillAgree) {
  for (std::size_t k = 1; k <= 6; ++k) {
    expect_bitwise_equal(greedy_coverage_placement(threshold_problem_, k),
                         lazy_marginal_greedy_placement(threshold_problem_, k));
    expect_bitwise_equal(
        naive_marginal_greedy_placement(linear_problem_, k),
        lazy_marginal_greedy_placement(linear_problem_, k));
  }
}

TEST_F(GreedyParity, StatsStillReportedWithOptions) {
  LazyGreedyStats stats;
  const CompositeGreedyOptions pad{.stop_when_no_gain = false};
  (void)lazy_marginal_greedy_placement(linear_problem_, 6, &stats, pad);
  EXPECT_GT(stats.gain_evaluations, 0u);
  EXPECT_GT(stats.heap_pops, 0u);
}

TEST_F(GreedyParity, ZeroBudgetThrowsEverywhere) {
  EXPECT_THROW(greedy_coverage_placement(threshold_problem_, 0),
               std::invalid_argument);
  EXPECT_THROW(composite_greedy_placement(linear_problem_, 0),
               std::invalid_argument);
  EXPECT_THROW(naive_marginal_greedy_placement(linear_problem_, 0),
               std::invalid_argument);
  EXPECT_THROW(lazy_marginal_greedy_placement(linear_problem_, 0),
               std::invalid_argument);
  EXPECT_THROW(exhaustive_optimal_placement(threshold_problem_, 0),
               std::invalid_argument);
}

TEST_F(GreedyParity, OverBudgetClampsAndSetsTheGauge) {
  const std::size_t n = threshold_problem_.num_nodes();
  obs::Telemetry telemetry;
  {
    const obs::TelemetryScope scope(telemetry);
    const GreedyOptions pad{.stop_when_no_gain = false};
    const PlacementResult padded =
        greedy_coverage_placement(threshold_problem_, n + 5, pad);
    EXPECT_EQ(padded.nodes.size(), n);  // clamped to every node
  }
  EXPECT_DOUBLE_EQ(telemetry.metrics.gauge("placement.k_clamped").value(),
                   5.0);
}

TEST_F(GreedyParity, OverBudgetClampsForTheWholeFamily) {
  const std::size_t n = threshold_problem_.num_nodes();
  // No throw, never more than n RAPs, for every entry point.
  EXPECT_LE(greedy_coverage_placement(threshold_problem_, n + 1).nodes.size(), n);
  EXPECT_LE(composite_greedy_placement(linear_problem_, n + 1).nodes.size(), n);
  EXPECT_LE(naive_marginal_greedy_placement(linear_problem_, n + 1).nodes.size(),
            n);
  EXPECT_LE(lazy_marginal_greedy_placement(linear_problem_, n + 1).nodes.size(),
            n);
  EXPECT_LE(exhaustive_optimal_placement(threshold_problem_, n + 1).nodes.size(),
            n);
  // Clamped and unclamped budgets agree: k caps at n either way.
  expect_bitwise_equal(exhaustive_optimal_placement(threshold_problem_, n + 1),
                       exhaustive_optimal_placement(threshold_problem_, n));
}

}  // namespace
}  // namespace rap::core
