// Differential suite for the distance engines that price detours: the shop's
// two Dijkstra trees (forward and reverse, as held by
// traffic::DetourCalculator) and the early-exit point-to-point query, against
// all-pairs rows of plain graph::dijkstra runs.
//
// Forward engines run the same relaxations in the same order, so they must
// agree with the rows *bitwise* across every generated-city family. A
// reverse tree sums each path from the shop end; it must equal the rows of
// the transposed network bitwise, and the forward rows up to rounding (and
// exactly wherever both are +infinity).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/citygen/grid_city.h"
#include "src/citygen/partial_grid_city.h"
#include "src/citygen/radial_city.h"
#include "src/graph/dijkstra.h"
#include "src/traffic/detour.h"
#include "src/util/rng.h"
#include "tests/testing/builders.h"

namespace rap::graph {
namespace {

// rows[s][t] = dist(s, t), one forward Dijkstra per source.
std::vector<std::vector<double>> dijkstra_rows(const RoadNetwork& net) {
  std::vector<std::vector<double>> rows;
  for (std::size_t s = 0; s < net.num_nodes(); ++s) {
    rows.push_back(dijkstra(net, static_cast<NodeId>(s)).distances());
  }
  return rows;
}

RoadNetwork transposed(const RoadNetwork& net) {
  NetworkBuilder out;
  for (std::size_t i = 0; i < net.num_nodes(); ++i) {
    out.add_node(net.position(static_cast<NodeId>(i)));
  }
  // Same edge order, so out_edges here list what in_edges lists there.
  for (const Edge& e : net.edges()) out.add_edge(e.to, e.from, e.length);
  return std::move(out).build();
}

// Relative agreement for sums of the same edges in a different order: a
// path of at most n edges accumulates at most n roundings.
void expect_equal_up_to_rounding(double exact, double reordered,
                                 std::size_t n) {
  if (exact == kUnreachable || reordered == kUnreachable) {
    ASSERT_EQ(exact, reordered);
    return;
  }
  ASSERT_LE(std::abs(exact - reordered),
            static_cast<double>(n + 1) * 2.220446049250313e-16 * exact);
}

// EXPECT_EQ on doubles is exact (==): the contract is bitwise equality, and
// the only non-finite value in play is +infinity, where == is also what we
// mean.
void expect_all_pairs_match(const RoadNetwork& net) {
  const std::vector<std::vector<double>> rows = dijkstra_rows(net);
  const std::vector<std::vector<double>> reverse_rows =
      dijkstra_rows(transposed(net));
  const auto n = static_cast<NodeId>(net.num_nodes());
  for (NodeId s = 0; s < n; ++s) {
    const traffic::DetourCalculator trees(net, s);
    for (NodeId t = 0; t < n; ++t) {
      ASSERT_EQ(rows[s][t], trees.from_shop()[t])
          << "forward tree s=" << s << " t=" << t;
      ASSERT_EQ(rows[s][t], dijkstra_distance(net, s, t))
          << "point query s=" << s << " t=" << t;
      ASSERT_EQ(reverse_rows[s][t], trees.to_shop()[t])
          << "reverse tree s=" << s << " t=" << t;
      expect_equal_up_to_rounding(rows[t][s], trees.to_shop()[t],
                                  net.num_nodes());
    }
  }
}

TEST(OracleDifferential, GridCityAllBackends) {
  const citygen::GridCity city({5, 4, 300.0});
  expect_all_pairs_match(city.network());
  // Integer block lengths sum exactly, so here the reverse tree must also
  // equal the forward rows bitwise.
  const std::vector<std::vector<double>> rows = dijkstra_rows(city.network());
  const auto n = static_cast<NodeId>(city.network().num_nodes());
  for (NodeId s = 0; s < n; ++s) {
    const traffic::DetourCalculator trees(city.network(), s);
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(rows[v][s], trees.to_shop()[v]) << s << " " << v;
    }
  }
}

TEST(OracleDifferential, PartialGridCities) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    util::Rng rng(seed);
    citygen::PartialGridSpec spec;
    spec.grid = {7, 6, 400.0};
    spec.position_jitter = 60.0;
    spec.oneway_prob = 0.15;
    const citygen::PartialGridCity city(spec, rng);
    expect_all_pairs_match(city.network());
  }
}

TEST(OracleDifferential, RadialCities) {
  for (const std::uint64_t seed : {11ULL, 12ULL}) {
    util::Rng rng(seed);
    citygen::RadialSpec spec;
    spec.rings = 4;
    spec.ring_spacing = 500.0;
    spec.chord_prob = 0.2;
    spec.oneway_prob = 0.1;
    expect_all_pairs_match(citygen::build_radial_city(spec, rng));
  }
}

TEST(OracleDifferential, RandomChordNetworks) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    expect_all_pairs_match(testing::random_network(5, 4, 6, rng));
  }
}

// Disconnected graphs: unreachable pairs must come back as the same
// +infinity the rows hold, and reachable pairs within each component
// must still match bitwise.
TEST(OracleDifferential, DisconnectedComponents) {
  // testing::line_network(4)'s line 0-1-2-3...
  NetworkBuilder builder;
  for (NodeId i = 0; i < 4; ++i) {
    builder.add_node({static_cast<double>(i), 0.0});
  }
  for (NodeId i = 0; i + 1 < 4; ++i) builder.add_two_way_edge(i, i + 1, 1.0);
  // ...a second, unreachable component.
  const NodeId a = builder.add_node({10.0, 0.0});
  const NodeId b = builder.add_node({11.0, 0.0});
  builder.add_two_way_edge(a, b, 1.0);
  // A one-way trap: reachable from the line, no way back.
  const NodeId trap = builder.add_node({5.0, 5.0});
  builder.add_edge(3, trap, 2.5);
  const RoadNetwork net = std::move(builder).build();
  expect_all_pairs_match(net);
  const traffic::DetourCalculator at_trap(net, trap);
  EXPECT_EQ(at_trap.from_shop()[0], kUnreachable);
  EXPECT_EQ(at_trap.to_shop()[0], 3.0 + 2.5);
  EXPECT_EQ(at_trap.to_shop()[a], kUnreachable);
}

TEST(OracleDifferential, IrregularLengthsStressFloatingPoint) {
  // Irregular edge lengths make floating-point association visible: a
  // forward engine that summed distances in a different order than the
  // Dijkstra rows would differ by ulps here.
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    util::Rng rng(seed);
    const RoadNetwork net = testing::random_network(4, 4, 3, rng);
    // Re-price every edge with an irrational-ish length.
    NetworkBuilder priced;
    for (std::size_t i = 0; i < net.num_nodes(); ++i) {
      priced.add_node(net.position(static_cast<NodeId>(i)));
    }
    for (const Edge& e : net.edges()) {
      priced.add_edge(e.from, e.to, e.length * (1.0 + rng.next_double()) / 3.0);
    }
    expect_all_pairs_match(std::move(priced).build());
  }
}

TEST(OracleBatch, DistancesFromMatchesPointQueries) {
  const citygen::GridCity city({4, 4, 250.0});
  const RoadNetwork& net = city.network();
  const auto n = static_cast<NodeId>(net.num_nodes());
  for (NodeId s = 0; s < n; ++s) {
    const ShortestPathTree tree = dijkstra(net, s);
    ASSERT_EQ(tree.distances().size(), net.num_nodes());
    for (NodeId t = 0; t < n; ++t) {
      ASSERT_EQ(tree.distance(t), dijkstra_distance(net, s, t))
          << "s=" << s << " t=" << t;
    }
  }
}

TEST(OracleErrors, BadNodeIdsThrow) {
  const citygen::GridCity city({3, 3, 100.0});
  const RoadNetwork& net = city.network();
  const auto bad = static_cast<NodeId>(net.num_nodes());
  EXPECT_THROW(dijkstra(net, bad), std::out_of_range);
  EXPECT_THROW(dijkstra(net, bad, Direction::kReverse), std::out_of_range);
  EXPECT_THROW(dijkstra_distance(net, 0, bad), std::out_of_range);
  EXPECT_THROW(dijkstra_distance(net, bad, 0), std::out_of_range);
  EXPECT_THROW(traffic::DetourCalculator(net, bad), std::out_of_range);
}

}  // namespace
}  // namespace rap::graph
