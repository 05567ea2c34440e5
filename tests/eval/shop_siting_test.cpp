#include "src/eval/shop_siting.h"

#include <gtest/gtest.h>

#include "src/core/composite_greedy.h"
#include "tests/testing/builders.h"

namespace rap::eval {
namespace {

using testing::Fig4;

TEST(ShopSiting, Validation) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  ShopSitingOptions options;
  options.k = 0;
  EXPECT_THROW(rank_shop_sites(fig.net, fig.flows, utility, options),
               std::invalid_argument);
  options.k = 2;
  options.candidates = {99};
  EXPECT_THROW(rank_shop_sites(fig.net, fig.flows, utility, options),
               std::out_of_range);
}

TEST(ShopSiting, RanksAllNodesByDefault) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  ShopSitingOptions options;
  options.k = 2;
  const auto scores = rank_shop_sites(fig.net, fig.flows, utility, options);
  ASSERT_EQ(scores.size(), fig.net.num_nodes());
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_GE(scores[i - 1].customers, scores[i].customers);  // descending
  }
}

TEST(ShopSiting, ScoresMatchDirectGreedy) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  ShopSitingOptions options;
  options.k = 2;
  const auto scores = rank_shop_sites(fig.net, fig.flows, utility, options);
  for (const SiteScore& score : scores) {
    const core::PlacementProblem problem(fig.net, fig.flows, score.shop,
                                         utility);
    const core::PlacementResult direct =
        core::composite_greedy_placement(problem, 2);
    EXPECT_EQ(score.customers, direct.customers) << "shop " << score.shop;
    EXPECT_EQ(score.placement, direct.nodes);
  }
}

TEST(ShopSiting, BestSiteBeatsV1OnFig4) {
  // The Fig. 4 shop position V1 is off every flow; central V3 must rank
  // above it.
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  ShopSitingOptions options;
  options.k = 2;
  const auto scores = rank_shop_sites(fig.net, fig.flows, utility, options);
  double v1_score = -1.0;
  double v3_score = -1.0;
  for (const SiteScore& s : scores) {
    if (s.shop == Fig4::V1) v1_score = s.customers;
    if (s.shop == Fig4::V3) v3_score = s.customers;
  }
  EXPECT_GT(v3_score, v1_score);
  // And the global winner attracts at least as much as both.
  EXPECT_GE(scores.front().customers, v3_score);
}

TEST(ShopSiting, CandidateRestriction) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  ShopSitingOptions options;
  options.k = 1;
  options.candidates = {Fig4::V1, Fig4::V6};
  const auto scores = rank_shop_sites(fig.net, fig.flows, utility, options);
  ASSERT_EQ(scores.size(), 2u);
  for (const SiteScore& s : scores) {
    EXPECT_TRUE(s.shop == Fig4::V1 || s.shop == Fig4::V6);
  }
}

TEST(ShopSiting, TopTruncation) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  ShopSitingOptions options;
  options.k = 1;
  options.top = 3;
  const auto scores = rank_shop_sites(fig.net, fig.flows, utility, options);
  EXPECT_EQ(scores.size(), 3u);
}

TEST(ShopSiting, WorksOnRandomWorkload) {
  util::Rng rng(7);
  const auto net = testing::random_network(5, 5, 5, rng);
  const auto flows = testing::random_flows(net, 15, rng);
  const traffic::ThresholdUtility utility(5.0);
  ShopSitingOptions options;
  options.k = 3;
  options.top = 5;
  const auto scores = rank_shop_sites(net, flows, utility, options);
  ASSERT_EQ(scores.size(), 5u);
  EXPECT_GT(scores.front().customers, 0.0);
  for (const SiteScore& s : scores) {
    EXPECT_LE(s.placement.size(), 3u);
  }
}

// A site's score is bitwise the score of composite greedy on the problem
// built directly for that shop. On this instance an all-pairs matrix's d'/d''
// differ from the shop trees' in the last bits, enough to move the scores of
// shops 22 and 31.
TEST(ShopSiting, ScoresAndPlacementsBitwiseEqualDirectProblems) {
  util::Rng rng(10);
  const auto net = testing::random_network(8, 8, 20, rng);
  const auto flows = testing::random_flows(net, 40, rng);
  const traffic::LinearUtility utility(25.0);
  ShopSitingOptions options;
  options.k = 4;
  options.candidates = {22, 31};
  const auto scores = rank_shop_sites(net, flows, utility, options);
  ASSERT_EQ(scores.size(), 2u);
  for (const SiteScore& score : scores) {
    const core::PlacementProblem problem(net, flows, score.shop, utility);
    const core::PlacementResult direct =
        core::composite_greedy_placement(problem, options.k);
    EXPECT_EQ(score.customers, direct.customers) << "shop " << score.shop;
    EXPECT_EQ(score.placement, direct.nodes) << "shop " << score.shop;
  }
}

TEST(ShopSiting, ScoresMatchDirectGreedyOnALargeGrid) {
  // 46 x 46 = 2116 nodes, four candidates, each with its own two shop
  // Dijkstras.
  util::Rng rng(46);
  const auto net = testing::random_network(46, 46, 20, rng);
  const auto flows = testing::random_flows(net, 60, rng);
  const traffic::LinearUtility utility(30.0);
  ShopSitingOptions options;
  options.k = 3;
  options.candidates = {0, 1000, 1057, 2115};
  const auto scores = rank_shop_sites(net, flows, utility, options);
  ASSERT_EQ(scores.size(), options.candidates.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(scores[i - 1].customers, scores[i].customers);  // descending
    }
    const core::PlacementProblem problem(net, flows, scores[i].shop, utility);
    const core::PlacementResult direct =
        core::composite_greedy_placement(problem, options.k);
    EXPECT_EQ(scores[i].customers, direct.customers) << "shop " << scores[i].shop;
    EXPECT_EQ(scores[i].placement, direct.nodes) << "shop " << scores[i].shop;
  }
  EXPECT_GT(scores.front().customers, 0.0);
}

}  // namespace
}  // namespace rap::eval
