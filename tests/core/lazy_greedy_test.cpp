#include "src/core/lazy_greedy.h"

#include <gtest/gtest.h>

#include "src/core/composite_greedy.h"
#include "src/core/greedy.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

using testing::Fig4;

TEST(LazyGreedy, RejectsZeroK) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  EXPECT_THROW(lazy_marginal_greedy_placement(problem, 0),
               std::invalid_argument);
}

TEST(LazyGreedy, MatchesNaiveOnFig4) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const PlacementResult eager = naive_marginal_greedy_placement(problem, 2);
  const PlacementResult lazy = lazy_marginal_greedy_placement(problem, 2);
  EXPECT_EQ(eager.nodes, lazy.nodes);
  EXPECT_DOUBLE_EQ(eager.customers, lazy.customers);
}

// Under the threshold utility a covered flow cannot improve, so the marginal
// gain is Algorithm 1's uncovered gain term for term and the CELF loop
// reproduces greedy_coverage_placement bit for bit.
TEST(LazyGreedy, MatchesAlgorithm1OnFig4Threshold) {
  Fig4 fig;
  const traffic::ThresholdUtility utility(6.0);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const PlacementResult eager = greedy_coverage_placement(problem, 3);
  const PlacementResult lazy = lazy_marginal_greedy_placement(problem, 3);
  EXPECT_EQ(eager.nodes, lazy.nodes);
  EXPECT_EQ(eager.customers, lazy.customers);
}

class LazyEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LazyEquivalence, MarginalIdenticalToEager) {
  util::Rng rng(GetParam() * 23 + 5);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 20, rng);
  const auto shop = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
  for (const auto kind :
       {traffic::UtilityKind::kThreshold, traffic::UtilityKind::kLinear,
        traffic::UtilityKind::kSqrt}) {
    const auto utility = traffic::make_utility(kind, 6.0);
    const PlacementProblem problem(net, flows, shop, *utility);
    for (const std::size_t k : {1u, 4u, 9u}) {
      const PlacementResult eager = naive_marginal_greedy_placement(problem, k);
      const PlacementResult lazy = lazy_marginal_greedy_placement(problem, k);
      EXPECT_EQ(eager.nodes, lazy.nodes) << utility->name() << " k=" << k;
      EXPECT_DOUBLE_EQ(eager.customers, lazy.customers);
    }
  }
}

TEST_P(LazyEquivalence, CoverageIdenticalToEager) {
  util::Rng rng(GetParam() * 29 + 7);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 20, rng);
  const traffic::ThresholdUtility utility(5.0);
  const PlacementProblem problem(
      net, flows, static_cast<graph::NodeId>(rng.next_below(net.num_nodes())),
      utility);
  // Threshold utility: Algorithm 1 and the marginal greedy coincide.
  for (const std::size_t k : {1u, 4u, 9u}) {
    const PlacementResult eager = greedy_coverage_placement(problem, k);
    const PlacementResult lazy = lazy_marginal_greedy_placement(problem, k);
    EXPECT_EQ(eager.nodes, lazy.nodes) << "k=" << k;
    EXPECT_EQ(eager.customers, lazy.customers);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LazyEquivalence,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(LazyGreedy, EvaluatesFewerGainsThanEager) {
  util::Rng rng(71);
  const auto net = testing::random_network(8, 8, 10, rng);
  const auto flows = testing::random_flows(net, 60, rng);
  const traffic::LinearUtility utility(8.0);
  const PlacementProblem problem(net, flows, 10, utility);
  LazyGreedyStats stats;
  const std::size_t k = 10;
  (void)lazy_marginal_greedy_placement(problem, k, &stats);
  // Eager evaluates |V| gains per step; lazy must beat that clearly.
  EXPECT_LT(stats.gain_evaluations, k * net.num_nodes() / 2);
  // It always pays the initial full sweep.
  EXPECT_GE(stats.gain_evaluations, net.num_nodes());
}

TEST(LazyGreedy, StatsOptional) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  EXPECT_NO_THROW(lazy_marginal_greedy_placement(problem, 2, nullptr));
}

}  // namespace
}  // namespace rap::core
