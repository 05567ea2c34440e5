// A two-node, one-flow coverage table over a hand-picked NON-monotone
// utility: the closer node (smaller detour) attracts FEWER customers.
// Exercises the guarded branch in PlacementState::add() / gain_if_added
// (src/core/evaluator.cpp) and the order-dependent contribution semantics
// the (A3)/(A4) audit invariants distinguish.
//
//   node 0: detour 2, customers 9     node 1: detour 1, customers 3
#pragma once

#include <string>

#include "src/core/problem.h"
#include "src/graph/road_network.h"
#include "src/traffic/utility.h"

namespace rap::testing {

/// 1/4 up to detour 1, 3/4 beyond it: non-monotone, unlike every utility
/// the paper uses.
class NonMonotoneUtility final : public traffic::UtilityFunction {
 public:
  [[nodiscard]] double probability(double detour,
                                   double /*alpha*/) const override {
    return detour <= 1.0 ? 0.25 : 0.75;
  }
  [[nodiscard]] double range() const noexcept override { return 10.0; }
  [[nodiscard]] std::string name() const override { return "nonmonotone"; }
};

class NonMonotoneModel final : public core::CoverageModel {
 public:
  NonMonotoneModel() : core::CoverageModel(build()) {}

 private:
  static core::CoverageModel build() {
    static const graph::RoadNetwork net = [] {
      graph::NetworkBuilder out;
      out.add_node({0.0, 0.0});
      out.add_node({1.0, 0.0});
      out.add_two_way_edge(0, 1, 1.0);
      return std::move(out).build();
    }();
    static const NonMonotoneUtility utility;
    core::CoverageBuilder builder(net, /*shop=*/0, utility,
                                  graph::kUnreachable);
    builder.add_flow(/*population=*/12.0, /*alpha=*/1.0);
    builder.add_pass(0, 2.0);  // 3/4 x 12 = 9 customers
    builder.add_pass(1, 1.0);  // 1/4 x 12 = 3 customers
    return std::move(builder).build();
  }
};

}  // namespace rap::testing
