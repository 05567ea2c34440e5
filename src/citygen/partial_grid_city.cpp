#include "src/citygen/partial_grid_city.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rap::citygen {
namespace {

void check_prob(double p, const char* what) {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument(std::string("PartialGridCity: ") + what +
                                " must be in [0, 1)");
  }
}

struct CandidateEdge {
  GridCoord a;
  GridCoord b;
};

}  // namespace

PartialGridCity::PartialGridCity(const PartialGridSpec& spec, util::Rng& rng)
    : spec_(spec) {
  check_prob(spec.edge_removal_prob, "edge_removal_prob");
  check_prob(spec.node_removal_prob, "node_removal_prob");
  check_prob(spec.oneway_prob, "oneway_prob");
  if (spec.position_jitter < 0.0) {
    throw std::invalid_argument("PartialGridCity: position_jitter must be >= 0");
  }
  const GridSpec& g = spec.grid;
  if (g.cols < 2 || g.rows < 2 || !(g.spacing > 0.0)) {
    throw std::invalid_argument("PartialGridCity: invalid base grid");
  }

  // Stage 1: sample the surviving intersections and street segments on the
  // ideal grid, then assemble a scratch network.
  std::vector<bool> node_alive(g.cols * g.rows, true);
  for (auto&& alive : node_alive) {
    if (rng.next_bool(spec.node_removal_prob)) alive = false;
  }
  const auto cell = [&](GridCoord c) { return c.row * g.cols + c.col; };

  std::vector<CandidateEdge> segments;
  segments.reserve(2 * g.cols * g.rows);
  for (std::size_t row = 0; row < g.rows; ++row) {
    for (std::size_t col = 0; col < g.cols; ++col) {
      if (col + 1 < g.cols) segments.push_back({{col, row}, {col + 1, row}});
      if (row + 1 < g.rows) segments.push_back({{col, row}, {col, row + 1}});
    }
  }
  const std::size_t ideal_segments = segments.size();

  graph::NetworkBuilder scratch;
  std::vector<graph::NodeId> scratch_id(node_alive.size(), graph::kInvalidNode);
  for (std::size_t row = 0; row < g.rows; ++row) {
    for (std::size_t col = 0; col < g.cols; ++col) {
      const GridCoord c{col, row};
      if (!node_alive[cell(c)]) continue;
      geo::Point pos{g.origin.x + static_cast<double>(col) * g.spacing,
                     g.origin.y + static_cast<double>(row) * g.spacing};
      if (spec.position_jitter > 0.0) {
        pos.x += rng.next_gaussian(0.0, spec.position_jitter);
        pos.y += rng.next_gaussian(0.0, spec.position_jitter);
      }
      scratch_id[cell(c)] = scratch.add_node(pos);
    }
  }

  std::size_t surviving_segments = 0;
  for (const CandidateEdge& seg : segments) {
    const graph::NodeId a = scratch_id[cell(seg.a)];
    const graph::NodeId b = scratch_id[cell(seg.b)];
    if (a == graph::kInvalidNode || b == graph::kInvalidNode) continue;
    if (rng.next_bool(spec.edge_removal_prob)) continue;
    ++surviving_segments;
    if (rng.next_bool(spec.oneway_prob)) {
      // One-way street; direction chosen uniformly.
      if (rng.next_bool(0.5)) {
        scratch.add_edge(a, b, g.spacing);
      } else {
        scratch.add_edge(b, a, g.spacing);
      }
    } else {
      scratch.add_two_way_edge(a, b, g.spacing);
    }
  }
  fidelity_ = ideal_segments == 0
                  ? 1.0
                  : static_cast<double>(surviving_segments) /
                        static_cast<double>(ideal_segments);

  // Stage 2: keep only the largest strongly connected component so every
  // surviving OD pair is mutually reachable.
  const graph::RoadNetwork whole = std::move(scratch).build();
  const std::vector<graph::NodeId> keep = whole.largest_scc();
  network_ = graph::induced_subnetwork(whole, keep);
}

}  // namespace rap::citygen
