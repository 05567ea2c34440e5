#include "src/core/ad_selection.h"

#include <stdexcept>

namespace rap::core {
namespace {

// Incremental state: per-flow best contribution over placed (node, ad)
// pairs. Mirrors PlacementState but with the ad dimension folded in.
class AdState {
 public:
  AdState(const CoverageModel& model, const InterestMatrix& interest)
      : model_(&model),
        interest_(&interest),
        node_used_(model.num_nodes(), false),
        contribution_(model.num_flows(), 0.0) {}

  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] bool node_used(graph::NodeId v) const { return node_used_[v]; }

  [[nodiscard]] double gain(graph::NodeId v, AdKind ad) const {
    double total = 0.0;
    for (const traffic::NodeIncidence& inc : model_->reach_at(v)) {
      const double candidate =
          (*interest_)(inc.flow, ad) * model_->customers(inc.flow, inc.detour);
      if (candidate > contribution_[inc.flow]) {
        total += candidate - contribution_[inc.flow];
      }
    }
    return total;
  }

  void add(graph::NodeId v, AdKind ad) {
    if (node_used_[v]) return;
    node_used_[v] = true;
    for (const traffic::NodeIncidence& inc : model_->reach_at(v)) {
      const double candidate =
          (*interest_)(inc.flow, ad) * model_->customers(inc.flow, inc.detour);
      if (candidate > contribution_[inc.flow]) {
        value_ += candidate - contribution_[inc.flow];
        contribution_[inc.flow] = candidate;
      }
    }
  }

 private:
  const CoverageModel* model_;
  const InterestMatrix* interest_;
  std::vector<bool> node_used_;
  std::vector<double> contribution_;
  double value_ = 0.0;
};

void check_compatible(const CoverageModel& model,
                      const InterestMatrix& interest) {
  if (interest.num_flows() != model.num_flows()) {
    throw std::invalid_argument(
        "multi_ad: interest matrix flow count != model flow count");
  }
  if (interest.num_ads() == 0) {
    throw std::invalid_argument("multi_ad: need at least one ad kind");
  }
}

}  // namespace

InterestMatrix::InterestMatrix(std::size_t num_flows, std::size_t num_ads,
                               std::vector<double> values)
    : num_flows_(num_flows), num_ads_(num_ads), values_(std::move(values)) {
  if (values_.size() != num_flows * num_ads) {
    throw std::invalid_argument("InterestMatrix: values size mismatch");
  }
  for (const double v : values_) {
    if (!(v >= 0.0) || v > 1.0) {
      throw std::invalid_argument("InterestMatrix: entries must be in [0, 1]");
    }
  }
}

double InterestMatrix::operator()(traffic::FlowIndex flow, AdKind ad) const {
  if (flow >= num_flows_ || ad >= num_ads_) {
    throw std::out_of_range("InterestMatrix: bad index");
  }
  return values_[flow * num_ads_ + ad];
}

AdPlacementResult multi_ad_greedy_placement(const CoverageModel& model,
                                            const InterestMatrix& interest,
                                            std::size_t k) {
  if (k == 0) {
    throw std::invalid_argument("multi_ad_greedy_placement: k must be > 0");
  }
  check_compatible(model, interest);
  AdState state(model, interest);
  AdPlacementResult result;
  const auto n = static_cast<graph::NodeId>(model.num_nodes());
  for (std::size_t step = 0; step < k; ++step) {
    AdAssignment best;
    double best_gain = 0.0;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (state.node_used(v)) continue;
      for (AdKind a = 0; a < interest.num_ads(); ++a) {
        const double gain = state.gain(v, a);
        if (gain > best_gain) {
          best_gain = gain;
          best = {v, a};
        }
      }
    }
    if (best.node == graph::kInvalidNode) break;
    state.add(best.node, best.ad);
    result.raps.push_back(best);
  }
  result.customers = state.value();
  return result;
}

double evaluate_ad_placement(const CoverageModel& model,
                             const InterestMatrix& interest,
                             std::span<const AdAssignment> raps) {
  check_compatible(model, interest);
  AdState state(model, interest);
  for (const AdAssignment& rap : raps) {
    model.network().check_node(rap.node);
    if (rap.ad >= interest.num_ads()) {
      throw std::out_of_range("evaluate_ad_placement: bad ad kind");
    }
    state.add(rap.node, rap.ad);
  }
  return state.value();
}

}  // namespace rap::core
