#include "src/citygen/partial_grid_city.h"

#include <gtest/gtest.h>

#include <cmath>

namespace rap::citygen {
namespace {

PartialGridSpec default_spec() {
  PartialGridSpec spec;
  spec.grid = {12, 12, 500.0, {0.0, 0.0}};
  return spec;
}

TEST(PartialGridCity, NoRemovalReproducesFullGrid) {
  PartialGridSpec spec = default_spec();
  spec.edge_removal_prob = 0.0;
  spec.node_removal_prob = 0.0;
  spec.oneway_prob = 0.0;
  util::Rng rng(1);
  const PartialGridCity city(spec, rng);
  EXPECT_EQ(city.network().num_nodes(), 144u);
  EXPECT_DOUBLE_EQ(city.grid_fidelity(), 1.0);
  EXPECT_TRUE(city.network().is_strongly_connected());
}

TEST(PartialGridCity, RemovalShrinksNetwork) {
  PartialGridSpec spec = default_spec();
  spec.edge_removal_prob = 0.15;
  spec.node_removal_prob = 0.05;
  util::Rng rng(2);
  const PartialGridCity city(spec, rng);
  EXPECT_LT(city.network().num_nodes(), 144u);
  EXPECT_LT(city.grid_fidelity(), 1.0);
  EXPECT_GT(city.grid_fidelity(), 0.5);
}

TEST(PartialGridCity, ResultIsStronglyConnected) {
  PartialGridSpec spec = default_spec();
  spec.edge_removal_prob = 0.2;
  spec.node_removal_prob = 0.1;
  spec.oneway_prob = 0.2;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    util::Rng rng(seed);
    const PartialGridCity city(spec, rng);
    EXPECT_TRUE(city.network().is_strongly_connected()) << "seed " << seed;
    EXPECT_GT(city.network().num_nodes(), 50u);
  }
}

TEST(PartialGridCity, DeterministicForSameSeed) {
  const PartialGridSpec spec = default_spec();
  util::Rng rng1(42);
  util::Rng rng2(42);
  const PartialGridCity a(spec, rng1);
  const PartialGridCity b(spec, rng2);
  ASSERT_EQ(a.network().num_nodes(), b.network().num_nodes());
  ASSERT_EQ(a.network().num_edges(), b.network().num_edges());
  for (graph::NodeId v = 0; v < a.network().num_nodes(); ++v) {
    EXPECT_EQ(a.network().position(v), b.network().position(v));
  }
}

TEST(PartialGridCity, DifferentSeedsDiffer) {
  const PartialGridSpec spec = default_spec();
  util::Rng rng1(1);
  util::Rng rng2(2);
  const PartialGridCity a(spec, rng1);
  const PartialGridCity b(spec, rng2);
  EXPECT_TRUE(a.network().num_nodes() != b.network().num_nodes() ||
              a.network().num_edges() != b.network().num_edges());
}

TEST(PartialGridCity, JitterMovesPositions) {
  PartialGridSpec spec = default_spec();
  spec.position_jitter = 40.0;
  util::Rng rng(9);
  const PartialGridCity city(spec, rng);
  // At least one node should be visibly off its nearest lattice point.
  bool moved = false;
  for (graph::NodeId v = 0; v < city.network().num_nodes() && !moved; ++v) {
    const geo::Point p = city.network().position(v);
    const geo::Point ideal{std::round(p.x / 500.0) * 500.0,
                           std::round(p.y / 500.0) * 500.0};
    moved = euclidean_distance(p, ideal) > 1.0;
  }
  EXPECT_TRUE(moved);
}

TEST(PartialGridCity, RejectsInvalidParameters) {
  util::Rng rng(1);
  PartialGridSpec bad = default_spec();
  bad.edge_removal_prob = 1.0;
  EXPECT_THROW(PartialGridCity(bad, rng), std::invalid_argument);
  bad = default_spec();
  bad.node_removal_prob = -0.1;
  EXPECT_THROW(PartialGridCity(bad, rng), std::invalid_argument);
  bad = default_spec();
  bad.position_jitter = -1.0;
  EXPECT_THROW(PartialGridCity(bad, rng), std::invalid_argument);
  bad = default_spec();
  bad.grid.cols = 1;
  EXPECT_THROW(PartialGridCity(bad, rng), std::invalid_argument);
}

TEST(PartialGridCity, OnewayStreetsReduceEdgeCount) {
  PartialGridSpec two_way = default_spec();
  PartialGridSpec one_way = default_spec();
  one_way.oneway_prob = 0.5;
  util::Rng rng1(11);
  util::Rng rng2(11);
  const PartialGridCity a(two_way, rng1);
  const PartialGridCity b(one_way, rng2);
  EXPECT_LT(b.network().num_edges(), a.network().num_edges());
}

}  // namespace
}  // namespace rap::citygen
