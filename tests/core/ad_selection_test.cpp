#include "src/core/ad_selection.h"

#include <gtest/gtest.h>

#include "src/core/composite_greedy.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

using testing::Fig4;

/// Interest 1.0 everywhere: the single-ad model for any ad.
InterestMatrix all_ones(std::size_t num_flows, std::size_t num_ads) {
  return {num_flows, num_ads, std::vector<double>(num_flows * num_ads, 1.0)};
}

TEST(InterestMatrix, Validation) {
  EXPECT_THROW(InterestMatrix(2, 2, {1.0, 1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(InterestMatrix(1, 1, {1.5}), std::invalid_argument);
  EXPECT_THROW(InterestMatrix(1, 1, {-0.1}), std::invalid_argument);
  const InterestMatrix m(2, 3, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6});
  EXPECT_DOUBLE_EQ(m(1, 2), 0.6);
  EXPECT_THROW(m(2, 0), std::out_of_range);
  EXPECT_THROW(m(0, 3), std::out_of_range);
}

class AdSelectionFig4 : public ::testing::Test {
 protected:
  AdSelectionFig4()
      : utility_(6.0), problem_(fig_.net, fig_.flows, Fig4::shop, utility_) {}

  Fig4 fig_;
  traffic::LinearUtility utility_;
  PlacementProblem problem_;
};

TEST_F(AdSelectionFig4, SingleUniformAdMatchesNaiveGreedy) {
  const InterestMatrix interest = all_ones(4, 1);
  const AdPlacementResult multi = multi_ad_greedy_placement(problem_, interest, 2);
  const PlacementResult single = naive_marginal_greedy_placement(problem_, 2);
  ASSERT_EQ(multi.raps.size(), single.nodes.size());
  for (std::size_t i = 0; i < multi.raps.size(); ++i) {
    EXPECT_EQ(multi.raps[i].node, single.nodes[i]);
    EXPECT_EQ(multi.raps[i].ad, 0u);
  }
  EXPECT_DOUBLE_EQ(multi.customers, single.customers);
}

TEST_F(AdSelectionFig4, PicksTheAdEachFlowPrefers) {
  // Ad 0 interests only T(2,5) and T(4,3); ad 1 only T(3,5) and T(5,6).
  const InterestMatrix interest(4, 2,
                                {1.0, 0.0,    // T(2,5)
                                 0.0, 1.0,    // T(3,5)
                                 1.0, 0.0,    // T(4,3)
                                 0.0, 1.0});  // T(5,6)
  const AdPlacementResult result = multi_ad_greedy_placement(problem_, interest, 2);
  ASSERT_EQ(result.raps.size(), 2u);
  // Best single (node, ad): V3 with ad 0 reaches T(2,5)+T(4,3) at detour 4:
  // 12 * (1/3) = 4; V2 ad 0: 6 * 2/3 = 4 (V3 wins ties? node order: V2=1 <
  // V3=2, so V2 first). Just assert the value is the optimum of this tiny
  // instance computed by hand: place V2/ad0 (4) then V4/ad0 (+4) = 8, or
  // involve ad 1: V3/ad1 covers T(3,5) at 1/3 = 1. Optimal greedy run:
  // step1 V2/ad0 (4), step2 V4/ad0 (4) -> 8.
  EXPECT_NEAR(result.customers, 8.0, 1e-12);
  EXPECT_EQ(result.raps[0].ad, 0u);
  EXPECT_EQ(result.raps[1].ad, 0u);
}

TEST_F(AdSelectionFig4, MoreAdKindsNeverHurt) {
  // Duplicate the single ad into two identical kinds: value unchanged.
  const InterestMatrix one = all_ones(4, 1);
  const InterestMatrix two = all_ones(4, 2);
  EXPECT_DOUBLE_EQ(multi_ad_greedy_placement(problem_, one, 2).customers,
                   multi_ad_greedy_placement(problem_, two, 2).customers);
}

TEST_F(AdSelectionFig4, SpecializedAdsBeatOneCompromiseAd) {
  // Each flow only cares about "its" ad; a single ad kind halves interest.
  const InterestMatrix split(4, 2,
                             {1.0, 0.0,  //
                              1.0, 0.0,  //
                              0.0, 1.0,  //
                              0.0, 1.0});
  const InterestMatrix compromise(4, 1, {0.5, 0.5, 0.5, 0.5});
  const double specialised =
      multi_ad_greedy_placement(problem_, split, 3).customers;
  const double single = multi_ad_greedy_placement(problem_, compromise, 3).customers;
  EXPECT_GT(specialised, single);
}

TEST_F(AdSelectionFig4, EvaluateMatchesGreedyValue) {
  const InterestMatrix interest(4, 2,
                                {1.0, 0.5, 0.3, 1.0, 0.8, 0.1, 0.0, 0.9});
  const AdPlacementResult result = multi_ad_greedy_placement(problem_, interest, 3);
  EXPECT_NEAR(result.customers,
              evaluate_ad_placement(problem_, interest, result.raps), 1e-12);
}

TEST_F(AdSelectionFig4, EvaluateIgnoresDuplicateNodes) {
  const InterestMatrix interest = all_ones(4, 2);
  const std::vector<AdAssignment> raps{{Fig4::V3, 0}, {Fig4::V3, 1}};
  // Second RAP on the same intersection is ignored (one RAP per node).
  EXPECT_DOUBLE_EQ(evaluate_ad_placement(problem_, interest, raps),
                   evaluate_ad_placement(problem_, interest,
                                         std::vector<AdAssignment>{{Fig4::V3, 0}}));
}

TEST_F(AdSelectionFig4, Validation) {
  const InterestMatrix wrong_flows = all_ones(3, 1);
  const InterestMatrix ok = all_ones(4, 1);
  EXPECT_THROW(multi_ad_greedy_placement(problem_, wrong_flows, 2),
               std::invalid_argument);
  EXPECT_THROW(multi_ad_greedy_placement(problem_, ok, 0),
               std::invalid_argument);
  const std::vector<AdAssignment> bad_ad{{Fig4::V3, 7}};
  EXPECT_THROW(evaluate_ad_placement(problem_, ok, bad_ad), std::out_of_range);
  const std::vector<AdAssignment> bad_node{{99, 0}};
  EXPECT_THROW(evaluate_ad_placement(problem_, ok, bad_node), std::out_of_range);
}

TEST(AdSelection, MonotoneInK) {
  util::Rng rng(3);
  const auto net = testing::random_network(4, 4, 5, rng);
  const auto flows = testing::random_flows(net, 12, rng);
  const traffic::LinearUtility utility(6.0);
  const PlacementProblem problem(net, flows, 5, utility);
  std::vector<double> interest_values;
  for (std::size_t i = 0; i < flows.size() * 3; ++i) {
    interest_values.push_back(rng.next_double());
  }
  const InterestMatrix interest(flows.size(), 3, interest_values);
  double prev = 0.0;
  for (std::size_t k = 1; k <= 6; ++k) {
    const double value =
        multi_ad_greedy_placement(problem, interest, k).customers;
    EXPECT_GE(value, prev - 1e-12);
    prev = value;
  }
}

}  // namespace
}  // namespace rap::core
