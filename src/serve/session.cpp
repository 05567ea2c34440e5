#include "src/serve/session.h"

#include <cmath>
#include <stdexcept>

#include "src/core/evaluator.h"
#include "src/obs/telemetry.h"
#include "src/traffic/flow.h"

namespace rap::serve {

Session::Session(std::shared_ptr<const ServeScenario> scenario)
    : scenario_(std::move(scenario)) {}

const core::CoverageModel& Session::model() const noexcept {
  return delta_problem_ != nullptr
             ? static_cast<const core::CoverageModel&>(*delta_problem_)
             : *scenario_->problem;
}

void Session::apply_delta(const DeltaOp& op) {
  const obs::Span span("serve.delta");
  const std::vector<traffic::TrafficFlow>& current = flows();
  switch (op.kind) {
    case DeltaOp::Kind::kAddFlow:
      traffic::validate_flow(scenario_->net, op.flow);
      break;
    case DeltaOp::Kind::kRemoveFlow:
      if (op.index >= current.size()) {
        throw std::out_of_range("remove_flow: index " +
                                std::to_string(op.index) + " out of range (" +
                                std::to_string(current.size()) + " flows)");
      }
      break;
    case DeltaOp::Kind::kScaleFlow:
      if (op.index >= current.size()) {
        throw std::out_of_range("scale_flow: index " +
                                std::to_string(op.index) + " out of range (" +
                                std::to_string(current.size()) + " flows)");
      }
      if (!(op.factor > 0.0)) {
        throw std::invalid_argument("scale_flow: factor must be > 0");
      }
      // The rebuild's validate_flow rejects a non-finite volume or
      // population, but only after the mutation; every check it makes must
      // run here, first. A non-finite volume makes the population one too.
      if (!std::isfinite(current[op.index].daily_vehicles * op.factor *
                         current[op.index].passengers_per_vehicle)) {
        throw std::invalid_argument(
            "scale_flow: factor overflows the volume or population");
      }
      break;
  }
  // Every check has run, so only std::bad_alloc can escape from here on. It
  // returns the session to the scenario's base state: flows() and model()
  // never disagree, and no warm bound outlives the flows it was made for.
  try {
    apply_delta_bound(warm_, op, current, *scenario_->utility);
    if (!flows_.has_value()) flows_ = scenario_->flows;  // the one copy
    std::vector<traffic::TrafficFlow>& own = *flows_;
    switch (op.kind) {
      case DeltaOp::Kind::kAddFlow:
        own.push_back(op.flow);
        break;
      case DeltaOp::Kind::kRemoveFlow:
        own.erase(own.begin() + static_cast<std::ptrdiff_t>(op.index));
        break;
      case DeltaOp::Kind::kScaleFlow:
        own[op.index].daily_vehicles *= op.factor;
        break;
    }
    // The old table goes before the new one is priced, so a delta never
    // holds two. The expensive inputs — network and the shop's two Dijkstra
    // trees — are shared from the scenario; only the coverage table is
    // rebuilt here.
    delta_problem_.reset();
    delta_problem_ = std::make_unique<core::PlacementProblem>(
        scenario_->net, own, scenario_->shop, *scenario_->utility,
        std::make_unique<SharedDetours>(scenario_->detours));
  } catch (...) {
    delta_problem_.reset();
    flows_.reset();
    warm_ = WarmState{};
    throw;
  }
  ++stats_.deltas;
  obs::add_counter("serve.deltas_applied");
}

WarmStartResult Session::place(std::size_t k, Deadline deadline) {
  const obs::Span span("serve.place");
  const bool warm_in = warm_.valid;
  if (warm_in) {
    ++stats_.warm_attempts;
    obs::add_counter("serve.warm_start.attempts");
  }
  const WarmStartResult result =
      warm_start_marginal_greedy(model(), k, warm_, deadline);
  ++stats_.places;
  if (result.reused) {
    ++stats_.warm_reused;
    obs::add_counter("serve.warm_start.reused");
  }
  if (result.fell_back) {
    ++stats_.warm_fallbacks;
    obs::add_counter("serve.warm_start.fallbacks");
    obs::record_instant("serve.warm_start.fallback");
  }
  obs::add_counter("serve.warm_start.gain_evaluations",
                   result.gain_evaluations);
  return result;
}

double Session::evaluate(std::span<const graph::NodeId> nodes) const {
  const obs::Span span("serve.evaluate");
  for (const graph::NodeId node : nodes) {
    if (node >= scenario_->net.num_nodes()) {
      throw std::out_of_range("evaluate: node " + std::to_string(node) +
                              " out of range");
    }
  }
  return core::evaluate_placement(model(), nodes);
}

}  // namespace rap::serve
