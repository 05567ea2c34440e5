#include "src/core/filtered.h"

#include <stdexcept>

namespace rap::core {

FilteredCoverageModel::FilteredCoverageModel(const CoverageModel& base,
                                             const std::vector<bool>& active)
    : CoverageModel(base.network(), base.shop(), base.utility()) {
  if (active.size() != base.num_flows()) {
    throw std::invalid_argument(
        "FilteredCoverageModel: active mask size != num_flows");
  }
  weights_ = base.weights_;
  for (std::size_t f = 0; f < active.size(); ++f) {
    if (!active[f]) weights_[f].population = 0.0;
  }
  const std::size_t n = base.num_nodes();
  node_start_.assign(n + 1, 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    for (const traffic::NodeIncidence& inc : base.reach_at(v)) {
      if (active[inc.flow]) entries_.push_back(inc);
    }
    node_start_[v + 1] = static_cast<std::uint32_t>(entries_.size());
  }
}

}  // namespace rap::core
