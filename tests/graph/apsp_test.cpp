#include "src/graph/apsp.h"

#include <gtest/gtest.h>

#include "src/graph/dijkstra.h"
#include "src/util/thread_pool.h"
#include "tests/testing/builders.h"

namespace rap::graph {
namespace {

class ConfigGuard {
 public:
  ConfigGuard() : saved_(util::parallel_config()) {}
  ~ConfigGuard() { util::set_parallel_config(saved_); }

 private:
  util::ParallelConfig saved_;
};

TEST(DistanceMatrix, SetGetRoundTrip) {
  DistanceMatrix m(3);
  m.set(0, 2, 5.5);
  EXPECT_DOUBLE_EQ(m(0, 2), 5.5);
  EXPECT_DOUBLE_EQ(m(2, 0), 0.0);
  EXPECT_EQ(m.size(), 3u);
}

TEST(DistanceMatrix, RowSpan) {
  DistanceMatrix m(2);
  m.set(1, 0, 3.0);
  m.set(1, 1, 0.0);
  const auto row = m.row(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_DOUBLE_EQ(row[0], 3.0);
}

TEST(DistanceMatrix, BoundsChecked) {
  DistanceMatrix m(2);
  EXPECT_THROW(m(2, 0), std::out_of_range);
  EXPECT_THROW(m.set(0, 2, 1.0), std::out_of_range);
  EXPECT_THROW(m.row(2), std::out_of_range);
}

// Regression: row() used to validate via check(from, 0), conflating the row
// index with column 0 — the last valid row and the empty matrix exercised
// the (previously wrong) boundary.
TEST(DistanceMatrix, RowBoundaryIsExact) {
  DistanceMatrix m(3);
  EXPECT_EQ(m.row(2).size(), 3u);   // last valid row must not throw
  EXPECT_THROW(m.row(3), std::out_of_range);

  DistanceMatrix empty(0);
  EXPECT_THROW(empty.row(0), std::out_of_range);
}

TEST(DistanceMatrix, MutableRowWritesAreVisible) {
  DistanceMatrix m(2);
  EXPECT_THROW(m.mutable_row(2), std::out_of_range);
  auto row = m.mutable_row(1);
  ASSERT_EQ(row.size(), 2u);
  row[0] = 4.0;
  row[1] = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 7.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);  // other rows untouched
}

TEST(Apsp, LineNetwork) {
  const RoadNetwork net = testing::line_network(4);
  const DistanceMatrix d = all_pairs_shortest_paths(net);
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(d(i, j), std::abs(static_cast<double>(i) -
                                         static_cast<double>(j)));
    }
  }
}

TEST(Apsp, DiagonalIsZero) {
  util::Rng rng(31);
  const RoadNetwork net = testing::random_network(4, 3, 4, rng);
  const DistanceMatrix d = all_pairs_shortest_paths(net);
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 0.0);
  }
}

TEST(Apsp, DisconnectedPairsAreInfinite) {
  NetworkBuilder builder;
  builder.add_node({0.0, 0.0});
  builder.add_node({1.0, 0.0});
  const RoadNetwork net = std::move(builder).build();
  const DistanceMatrix d = all_pairs_shortest_paths(net);
  EXPECT_EQ(d(0, 1), kUnreachable);
  EXPECT_EQ(d(1, 0), kUnreachable);
}

TEST(Apsp, AsymmetricOnOneWayStreets) {
  NetworkBuilder builder;
  const NodeId a = builder.add_node({0.0, 0.0});
  const NodeId b = builder.add_node({1.0, 0.0});
  const NodeId c = builder.add_node({0.5, 1.0});
  builder.add_edge(a, b, 1.0);
  builder.add_edge(b, c, 1.0);
  builder.add_edge(c, a, 1.0);
  const RoadNetwork net = std::move(builder).build();
  const DistanceMatrix d = all_pairs_shortest_paths(net);
  EXPECT_DOUBLE_EQ(d(a, b), 1.0);
  EXPECT_DOUBLE_EQ(d(b, a), 2.0);
}

TEST(Apsp, TwoWayNetworkIsSymmetric) {
  util::Rng rng(37);
  const RoadNetwork net = testing::random_network(4, 4, 6, rng);
  const DistanceMatrix d = all_pairs_shortest_paths(net);
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    for (NodeId j = 0; j < net.num_nodes(); ++j) {
      EXPECT_NEAR(d(i, j), d(j, i), 1e-9);
    }
  }
}

class ApspVsFloydWarshall : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApspVsFloydWarshall, Agree) {
  util::Rng rng(GetParam() * 7 + 1);
  const RoadNetwork net = testing::random_network(
      3 + rng.next_below(4), 3 + rng.next_below(4), rng.next_below(10), rng);
  const DistanceMatrix fast = all_pairs_shortest_paths(net);
  const DistanceMatrix slow = floyd_warshall(net);
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    for (NodeId j = 0; j < net.num_nodes(); ++j) {
      EXPECT_NEAR(fast(i, j), slow(i, j), 1e-9) << i << "->" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ApspVsFloydWarshall,
                         ::testing::Range<std::uint64_t>(0, 10));

// Property test for the parallel row sweep: at threads=4 the Dijkstra-based
// APSP must still agree with the serial Floyd–Warshall oracle on random
// strongly connected networks.
class ParallelApspVsFloydWarshall
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelApspVsFloydWarshall, Agree) {
  const ConfigGuard guard;
  util::set_parallel_config({4});
  util::Rng rng(GetParam() * 13 + 5);
  const RoadNetwork net = testing::random_network(
      3 + rng.next_below(5), 3 + rng.next_below(5), rng.next_below(12), rng);
  const DistanceMatrix fast = all_pairs_shortest_paths(net);
  const DistanceMatrix slow = floyd_warshall(net);
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    for (NodeId j = 0; j < net.num_nodes(); ++j) {
      EXPECT_NEAR(fast(i, j), slow(i, j), 1e-9) << i << "->" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ParallelApspVsFloydWarshall,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(ParallelApsp, GraphSmallerThanThreadCount) {
  const ConfigGuard guard;
  util::set_parallel_config({8});
  const RoadNetwork net = testing::line_network(2);  // 2 nodes, 8 threads
  const DistanceMatrix d = all_pairs_shortest_paths(net);
  EXPECT_DOUBLE_EQ(d(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

TEST(ParallelApsp, SingleNodeGraph) {
  const ConfigGuard guard;
  util::set_parallel_config({4});
  NetworkBuilder builder;
  builder.add_node({0.0, 0.0});
  const RoadNetwork net = std::move(builder).build();
  const DistanceMatrix d = all_pairs_shortest_paths(net);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

TEST(ParallelApsp, EmptyGraph) {
  const ConfigGuard guard;
  util::set_parallel_config({4});
  const RoadNetwork net;
  EXPECT_EQ(all_pairs_shortest_paths(net).size(), 0u);
}

// --- dense-limit guard (fail fast instead of OOM-killing the process) ----

TEST(DenseLimit, BoundaryIsExact) {
  // Exactly at the limit constructs; one past it throws — *before* the
  // n^2 allocation (a 10^5-node matrix would be 80 GB; the throw proves the
  // guard fired first, instantly).
  EXPECT_NO_THROW(DistanceMatrix(8, 8));
  EXPECT_THROW(DistanceMatrix(9, 8), DenseLimitError);
  EXPECT_THROW(DistanceMatrix(100000), DenseLimitError);
}

TEST(DenseLimit, ZeroLimitMeansUnlimited) {
  const DistanceMatrix m(3, 0);
  EXPECT_EQ(3U, m.size());
}

TEST(DenseLimit, ErrorCarriesStructuredFields) {
  try {
    const DistanceMatrix m(20000, 16384);
    FAIL() << "expected DenseLimitError";
  } catch (const DenseLimitError& e) {
    EXPECT_EQ(20000U, e.nodes());
    EXPECT_EQ(16384U, e.limit());
    const std::string message = e.what();
    EXPECT_NE(std::string::npos, message.find("20000"));
    EXPECT_NE(std::string::npos, message.find("DetourCalculator"));
  }
}

TEST(DenseLimit, DefaultLimitAdmitsEveryTierOneCity) {
  // The default ceiling is far above any toy-city test instance, so the
  // guard is invisible to the existing suites.
  EXPECT_NO_THROW(DistanceMatrix(441));  // 21x21 Seattle-sized grid
  EXPECT_NO_THROW(DistanceMatrix{kDenseNodeLimit});
}

}  // namespace
}  // namespace rap::graph
