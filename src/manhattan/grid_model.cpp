#include "src/manhattan/grid_model.h"

#include <algorithm>

namespace rap::manhattan {
namespace {

core::CoverageModel grid_coverage(const GridScenario& scenario,
                                  std::span<const GridFlow> flows,
                                  const traffic::UtilityFunction& utility) {
  const citygen::GridCity& city = scenario.city();
  core::CoverageBuilder builder(city.network(), scenario.shop_node(), utility,
                                graph::kUnreachable);
  for (const GridFlow& flow : flows) {
    builder.add_flow(flow.population(), flow.alpha);
    const std::size_t col_lo = std::min(flow.entry.col, flow.exit.col);
    const std::size_t col_hi = std::max(flow.entry.col, flow.exit.col);
    const std::size_t row_lo = std::min(flow.entry.row, flow.exit.row);
    const std::size_t row_hi = std::max(flow.entry.row, flow.exit.row);
    for (std::size_t row = row_lo; row <= row_hi; ++row) {
      for (std::size_t col = col_lo; col <= col_hi; ++col) {
        const citygen::GridCoord coord{col, row};
        builder.add_pass(city.node_at(coord),
                         scenario.detour_at(coord, flow.exit));
      }
    }
  }
  return std::move(builder).build();
}

}  // namespace

GridCoverageModel::GridCoverageModel(const GridScenario& scenario,
                                     std::span<const GridFlow> flows,
                                     const traffic::UtilityFunction& utility)
    : core::CoverageModel(grid_coverage(scenario, flows, utility)) {}

}  // namespace rap::manhattan
