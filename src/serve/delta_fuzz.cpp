#include "src/serve/delta_fuzz.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "src/check/scenario.h"
#include "src/core/evaluator.h"
#include "src/core/lazy_greedy.h"
#include "src/serve/scenario_cache.h"
#include "src/serve/session.h"
#include "src/util/rng.h"

namespace rap::serve {
namespace {

/// Adopts a generated check::Scenario as a pinned ServeScenario (moving the
/// network, flows and utility; the scenario's own problem is dropped and
/// derive_scenario builds the serve-style one, as a build does).
std::shared_ptr<const ServeScenario> adopt_scenario(
    std::unique_ptr<check::Scenario> scenario) {
  auto serve = std::make_shared<ServeScenario>();
  serve->key = scenario->seed;
  serve->summary = "fuzz scenario seed " + std::to_string(scenario->seed);
  scenario->problem.reset();  // held pointers into net/utility; drop first
  serve->net = std::move(scenario->net);
  serve->flows = std::move(scenario->flows);
  serve->utility = std::move(scenario->utility);
  serve->shop = scenario->shop;
  derive_scenario(*serve);
  return serve;
}

/// Draws the next delta op, or nothing when the drawn op is infeasible
/// (unreachable OD pair, empty flow set).
bool draw_op(util::Rng& rng, const Session& session, DeltaOp& op) {
  const graph::RoadNetwork& net = session.scenario().net;
  const std::size_t flows = session.flows().size();
  switch (rng.next_below(3)) {
    case 0: {  // add_flow over a random reachable OD pair
      const auto origin = static_cast<graph::NodeId>(
          rng.next_below(net.num_nodes()));
      const auto destination = static_cast<graph::NodeId>(
          rng.next_below(net.num_nodes()));
      const double vehicles = 0.5 + rng.next_double() * 20.0;
      const double passengers = 1.0 + rng.next_double() * 4.0;
      const double alpha = 0.001 + rng.next_double() * 0.5;
      if (origin == destination) return false;
      try {
        op.kind = DeltaOp::Kind::kAddFlow;
        op.flow = traffic::make_shortest_path_flow(net, origin, destination,
                                                   vehicles, passengers, alpha);
        return true;
      } catch (const std::exception&) {
        return false;  // unreachable pair; the round just draws fewer ops
      }
    }
    case 1: {  // remove_flow
      if (flows == 0) return false;
      op.kind = DeltaOp::Kind::kRemoveFlow;
      op.index = rng.next_below(flows);
      return true;
    }
    default: {  // scale_flow, both up and down
      if (flows == 0) return false;
      op.kind = DeltaOp::Kind::kScaleFlow;
      op.index = rng.next_below(flows);
      op.factor = 0.25 + rng.next_double() * 2.75;
      return true;
    }
  }
}

/// Applies an op the session must reject — an out-of-range index, a scale
/// factor that overflows the flow's volume, or an added flow whose
/// population overflows — and checks that it throws and leaves flows() and
/// model() as they were. Returns false and fills `message` otherwise.
bool reject_op(util::Rng& rng, Session& session, std::size_t round,
               std::string& message) {
  constexpr double kMax = std::numeric_limits<double>::max();
  const std::vector<traffic::TrafficFlow> before = session.flows();
  const core::CoverageModel* const model = &session.model();
  DeltaOp op;
  op.kind = rng.next_bool(0.5) ? DeltaOp::Kind::kScaleFlow
                               : DeltaOp::Kind::kRemoveFlow;
  op.index = before.size() + rng.next_below(3);
  if (!before.empty() && rng.next_bool(0.5)) {
    op.index = rng.next_below(before.size());
    if (rng.next_bool(0.5)) {
      // Twice the largest double per vehicle (+inf below one vehicle): the
      // volume is +inf for any flow (NaN for a zero one), never finite.
      op.kind = DeltaOp::Kind::kScaleFlow;
      op.factor = kMax / std::max(before[op.index].daily_vehicles, 1.0) * 2.0;
    } else {
      // The flow's own walk with finite volumes whose product is +inf.
      op.kind = DeltaOp::Kind::kAddFlow;
      op.flow = before[op.index];
      op.flow.daily_vehicles = kMax;
      op.flow.passengers_per_vehicle = 2.0;
    }
  }
  try {
    session.apply_delta(op);
  } catch (const std::exception&) {
    if (session.flows() == before && &session.model() == model &&
        model->num_flows() == before.size()) {
      return true;
    }
  }
  std::ostringstream error;
  error.precision(17);
  error << "round " << round << ": "
        << (op.kind == DeltaOp::Kind::kAddFlow     ? "add_flow"
            : op.kind == DeltaOp::Kind::kScaleFlow ? "scale_flow"
                                                   : "remove_flow")
        << " index " << op.index << " factor " << op.factor
        << " was accepted or changed the session's flows or model";
  message = error.str();
  return false;
}

/// One warm-vs-scratch comparison on the session's current flow state.
/// Returns false and fills `message` on divergence.
bool compare_round(Session& session, std::size_t k, std::size_t round,
                   std::string& message) {
  const WarmStartResult warm = session.place(k);

  const ServeScenario& scenario = session.scenario();
  const core::PlacementProblem reference(scenario.net, session.flows(),
                                         scenario.shop, *scenario.utility);
  const core::PlacementResult scratch =
      core::lazy_marginal_greedy_placement(reference, k);

  std::ostringstream error;
  if (warm.placement.nodes != scratch.nodes) {
    error << "round " << round << ": placement diverged (warm [";
    for (const graph::NodeId v : warm.placement.nodes) error << " " << v;
    error << " ] vs scratch [";
    for (const graph::NodeId v : scratch.nodes) error << " " << v;
    error << " ])";
    message = error.str();
    return false;
  }
  if (warm.placement.customers != scratch.customers) {
    error.precision(17);
    error << "round " << round << ": value diverged (warm "
          << warm.placement.customers << " vs scratch " << scratch.customers
          << ")";
    message = error.str();
    return false;
  }
  const double warm_eval = session.evaluate(warm.placement.nodes);
  const double scratch_eval =
      core::evaluate_placement(reference, scratch.nodes);
  if (warm_eval != scratch_eval) {
    error.precision(17);
    error << "round " << round << ": evaluate diverged (session " << warm_eval
          << " vs scratch " << scratch_eval << ")";
    message = error.str();
    return false;
  }
  return true;
}

}  // namespace

DeltaFuzzReport fuzz_delta_one(std::uint64_t seed,
                               const DeltaFuzzOptions& options) {
  DeltaFuzzReport report;
  report.seed = seed;

  std::unique_ptr<check::Scenario> generated = check::generate_scenario(seed);
  if (!check::is_monotone(generated->utility_kind)) {
    report.skipped = true;
    return report;
  }
  const std::size_t k = generated->k;
  Session session(adopt_scenario(std::move(generated)));

  // Distinct stream from the scenario generator so op draws never correlate
  // with instance structure.
  util::Rng rng(seed ^ 0xde17a5eedULL);
  // Rejected ops draw from their own stream, so each seed replays the same
  // valid op sequence with or without them.
  util::Rng reject_rng(seed ^ 0xba5e0ddULL);

  // Round 0: cold parity before any delta.
  if (!compare_round(session, k, 0, report.message)) {
    report.ok = false;
    return report;
  }
  ++report.rounds_run;

  for (std::size_t round = 1; round <= options.rounds; ++round) {
    for (std::size_t i = 0; i < options.ops_per_round; ++i) {
      DeltaOp op;
      if (!draw_op(rng, session, op)) continue;
      session.apply_delta(op);
      ++report.deltas_applied;
    }
    if (reject_rng.next_bool(0.3) &&
        !reject_op(reject_rng, session, round, report.message)) {
      report.ok = false;
      break;
    }
    if (!compare_round(session, k, round, report.message)) {
      report.ok = false;
      break;
    }
    ++report.rounds_run;
  }
  report.warm_reused = session.stats().warm_reused;
  report.warm_fallbacks = session.stats().warm_fallbacks;
  return report;
}

}  // namespace rap::serve
