#include "src/serve/session.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <vector>

#include "src/core/evaluator.h"
#include "src/core/lazy_greedy.h"
#include "src/serve/delta.h"
#include "src/traffic/flow.h"

namespace rap::serve {
namespace {

constexpr const char* kNetworkCsv =
    "node,0,0\n"
    "node,1,0\n"
    "node,2,0\n"
    "node,0,1\n"
    "node,1,1\n"
    "node,2,1\n"
    "edge,0,1,1\n"
    "edge,1,0,1\n"
    "edge,1,2,1\n"
    "edge,2,1,1\n"
    "edge,3,4,1\n"
    "edge,4,3,1\n"
    "edge,4,5,1\n"
    "edge,5,4,1\n"
    "edge,0,3,1\n"
    "edge,3,0,1\n"
    "edge,1,4,1\n"
    "edge,4,1,1\n"
    "edge,2,5,1\n"
    "edge,5,2,1\n";

constexpr const char* kFlowsCsv =
    "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n"
    "0,5,12,2,0.5,0|1|4|5\n"
    "3,2,8,1,0.4,3|4|1|2\n"
    "0,2,6,3,0.3,0|1|2\n";

std::shared_ptr<const ServeScenario> make_scenario() {
  ScenarioSpec spec;
  spec.network_csv = kNetworkCsv;
  spec.flows_csv = kFlowsCsv;
  spec.utility = "linear";
  spec.range = 5.0;
  spec.shop = 4;
  return build_scenario(spec, scenario_key(spec));
}

/// From-scratch reference on the session's current flows: a freshly built
/// problem (own Dijkstras) solved by the library's lazy greedy.
core::PlacementResult scratch_place(const Session& session, std::size_t k) {
  const ServeScenario& scenario = session.scenario();
  const core::PlacementProblem reference(scenario.net, session.flows(),
                                         scenario.shop, *scenario.utility);
  return core::lazy_marginal_greedy_placement(reference, k);
}

void expect_parity(Session& session, std::size_t k, const char* where) {
  const WarmStartResult warm = session.place(k);
  const core::PlacementResult scratch = scratch_place(session, k);
  EXPECT_EQ(warm.placement.nodes, scratch.nodes) << where;
  EXPECT_EQ(warm.placement.customers, scratch.customers) << where;  // bitwise
}

TEST(ServeSession, ColdPlaceMatchesLazyGreedy) {
  Session session(make_scenario());
  expect_parity(session, 3, "cold");
  EXPECT_EQ(session.stats().places, 1U);
  EXPECT_EQ(session.stats().warm_attempts, 0U);
}

TEST(ServeSession, SecondPlaceRunsWarmWithSameResult) {
  Session session(make_scenario());
  const WarmStartResult cold = session.place(3);
  EXPECT_FALSE(cold.reused);
  const WarmStartResult warm = session.place(3);
  EXPECT_TRUE(warm.reused);
  EXPECT_FALSE(warm.fell_back);
  EXPECT_EQ(warm.placement.nodes, cold.placement.nodes);
  EXPECT_EQ(warm.placement.customers, cold.placement.customers);
  // Warm skips the full scan: strictly fewer evaluations than cold.
  EXPECT_LT(warm.gain_evaluations, cold.gain_evaluations);
  EXPECT_EQ(session.stats().warm_reused, 1U);
}

TEST(ServeSession, AddFlowDeltaKeepsParity) {
  Session session(make_scenario());
  (void)session.place(3);  // establish warm state
  DeltaOp op;
  op.kind = DeltaOp::Kind::kAddFlow;
  op.flow = traffic::make_shortest_path_flow(session.scenario().net, 3, 5,
                                             20.0, 2.0, 0.6);
  session.apply_delta(op);
  EXPECT_EQ(session.flows().size(), 4U);
  expect_parity(session, 3, "after add_flow");
}

TEST(ServeSession, RemoveFlowDeltaKeepsParity) {
  Session session(make_scenario());
  (void)session.place(2);
  DeltaOp op;
  op.kind = DeltaOp::Kind::kRemoveFlow;
  op.index = 0;
  session.apply_delta(op);
  EXPECT_EQ(session.flows().size(), 2U);
  expect_parity(session, 2, "after remove_flow");
}

TEST(ServeSession, ScaleFlowDeltaKeepsParityBothDirections) {
  Session session(make_scenario());
  (void)session.place(2);
  DeltaOp up;
  up.kind = DeltaOp::Kind::kScaleFlow;
  up.index = 1;
  up.factor = 3.5;
  session.apply_delta(up);
  expect_parity(session, 2, "after scale up");
  DeltaOp down;
  down.kind = DeltaOp::Kind::kScaleFlow;
  down.index = 1;
  down.factor = 0.1;
  session.apply_delta(down);
  expect_parity(session, 2, "after scale down");
}

TEST(ServeSession, DeltaSequenceStaysWarm) {
  // A realistic serve pattern: place, mutate, re-place, repeatedly. Every
  // re-placement after the first should reuse warm state (the bounds are
  // valid, so no fallback should ever trigger here).
  Session session(make_scenario());
  (void)session.place(3);
  for (int round = 0; round < 4; ++round) {
    DeltaOp op;
    op.kind = DeltaOp::Kind::kScaleFlow;
    op.index = static_cast<std::size_t>(round) % session.flows().size();
    op.factor = round % 2 == 0 ? 1.8 : 0.6;
    session.apply_delta(op);
    expect_parity(session, 3, "delta round");
  }
  EXPECT_EQ(session.stats().warm_attempts, 4U);
  EXPECT_EQ(session.stats().warm_reused, 4U);
  EXPECT_EQ(session.stats().warm_fallbacks, 0U);
}

TEST(ServeSession, RejectsBadDeltas) {
  Session session(make_scenario());
  DeltaOp bad_index;
  bad_index.kind = DeltaOp::Kind::kRemoveFlow;
  bad_index.index = 99;
  EXPECT_THROW(session.apply_delta(bad_index), std::out_of_range);

  DeltaOp bad_factor;
  bad_factor.kind = DeltaOp::Kind::kScaleFlow;
  bad_factor.index = 0;
  bad_factor.factor = 0.0;
  EXPECT_THROW(session.apply_delta(bad_factor), std::invalid_argument);

  DeltaOp bad_flow;
  bad_flow.kind = DeltaOp::Kind::kAddFlow;  // default flow is invalid
  EXPECT_THROW(session.apply_delta(bad_flow), std::invalid_argument);
  EXPECT_EQ(session.stats().deltas, 0U);
  EXPECT_EQ(session.flows().size(), 3U);
}

TEST(ServeSession, OverflowingScaleIsRejectedWithoutMutating) {
  // 12 vehicles * 1e308 is +inf. The op must throw before anything changes,
  // both while the session still reads the scenario's flows and after a
  // delta gave it its own copy, and later deltas must still apply.
  Session session(make_scenario());
  (void)session.place(2);
  DeltaOp overflow;
  overflow.kind = DeltaOp::Kind::kScaleFlow;
  overflow.index = 0;
  overflow.factor = 1e308;
  const core::CoverageModel* model = &session.model();
  EXPECT_THROW(session.apply_delta(overflow), std::invalid_argument);
  EXPECT_EQ(session.flows()[0].daily_vehicles, 12.0);
  EXPECT_EQ(&session.model(), model);
  EXPECT_EQ(session.stats().deltas, 0U);

  DeltaOp remove;
  remove.kind = DeltaOp::Kind::kRemoveFlow;
  remove.index = 2;
  session.apply_delta(remove);
  ASSERT_EQ(session.flows().size(), 2U);
  EXPECT_EQ(session.model().num_flows(), 2U);

  model = &session.model();
  EXPECT_THROW(session.apply_delta(overflow), std::invalid_argument);
  EXPECT_EQ(session.flows()[0].daily_vehicles, 12.0);
  EXPECT_EQ(session.flows().size(), 2U);
  EXPECT_EQ(&session.model(), model);
  EXPECT_EQ(session.model().num_flows(), 2U);
  expect_parity(session, 2, "after a rejected overflow");

  DeltaOp scale;
  scale.kind = DeltaOp::Kind::kScaleFlow;
  scale.index = 0;
  scale.factor = 2.0;
  session.apply_delta(scale);
  EXPECT_EQ(session.flows()[0].daily_vehicles, 24.0);
  expect_parity(session, 2, "after a delta following the rejection");
}

TEST(ServeSession, OverflowingPopulationIsRejectedWithoutMutating) {
  // Each volume finite, their product (the population) +inf: an added flow
  // of 1e300 vehicles * 1e300 passengers, and flow 0 (12 vehicles, 2
  // passengers each) scaled to 1e308 vehicles. Both must throw before
  // anything changes, and later deltas must still apply.
  Session session(make_scenario());
  (void)session.place(2);
  DeltaOp add;
  add.kind = DeltaOp::Kind::kAddFlow;
  add.flow = session.flows()[1];
  add.flow.daily_vehicles = 1e300;
  add.flow.passengers_per_vehicle = 1e300;
  DeltaOp scale;
  scale.kind = DeltaOp::Kind::kScaleFlow;
  scale.index = 0;
  scale.factor = 1e308 / 12.0;
  for (const DeltaOp& overflow : {add, scale}) {
    const std::vector<traffic::TrafficFlow> before = session.flows();
    const core::CoverageModel* model = &session.model();
    EXPECT_THROW(session.apply_delta(overflow), std::invalid_argument);
    EXPECT_EQ(session.flows(), before);
    EXPECT_EQ(&session.model(), model);
    EXPECT_EQ(session.stats().deltas, 0U);
  }
  expect_parity(session, 2, "after rejected population overflows");

  DeltaOp remove;
  remove.kind = DeltaOp::Kind::kRemoveFlow;
  remove.index = 2;
  session.apply_delta(remove);
  EXPECT_EQ(session.model().num_flows(), 2U);
  expect_parity(session, 2, "after a delta following the rejections");
}

TEST(ServeSession, EvaluateMatchesLibraryEvaluator) {
  Session session(make_scenario());
  const std::vector<graph::NodeId> placement{1, 4};
  const core::PlacementProblem reference(
      session.scenario().net, session.flows(), session.scenario().shop,
      *session.scenario().utility);
  EXPECT_EQ(session.evaluate(placement),
            core::evaluate_placement(reference, placement));
  EXPECT_THROW(session.evaluate(std::vector<graph::NodeId>{99}),
               std::out_of_range);
}

TEST(ServeSession, BudgetContract) {
  Session session(make_scenario());
  EXPECT_THROW((void)session.place(0), std::invalid_argument);
  // k > num_nodes clamps (6-node network).
  const WarmStartResult result = session.place(100);
  EXPECT_LE(result.placement.nodes.size(), 6U);
}

TEST(ServeSession, ExpiredDeadlineThrows) {
  Session session(make_scenario());
  const Deadline expired = std::chrono::steady_clock::now() -
                           std::chrono::milliseconds(10);
  EXPECT_THROW((void)session.place(3, expired), DeadlineExceeded);
}

TEST(ServeSession, FlowsShareTheScenarioUntilTheFirstDelta) {
  const auto scenario = make_scenario();
  Session session(scenario);
  // No copy at load: the session reads the scenario's own flow storage,
  // through places and rejected deltas alike.
  EXPECT_EQ(session.flows().data(), scenario->flows.data());
  (void)session.place(2);
  DeltaOp bad_index;
  bad_index.kind = DeltaOp::Kind::kRemoveFlow;
  bad_index.index = 99;
  EXPECT_THROW(session.apply_delta(bad_index), std::out_of_range);
  EXPECT_EQ(session.flows().data(), scenario->flows.data());

  // The first delta copies; the scenario's base flows stay untouched.
  DeltaOp scale;
  scale.kind = DeltaOp::Kind::kScaleFlow;
  scale.index = 0;
  scale.factor = 2.0;
  session.apply_delta(scale);
  EXPECT_NE(session.flows().data(), scenario->flows.data());
  ASSERT_EQ(session.flows().size(), scenario->flows.size());
  EXPECT_EQ(session.flows()[0].daily_vehicles,
            2.0 * scenario->flows[0].daily_vehicles);
  EXPECT_EQ(scenario->flows[0].daily_vehicles, 12.0);
  expect_parity(session, 2, "after the copying delta");

  // A fresh session on the same scenario shares it again.
  const Session fresh(scenario);
  EXPECT_EQ(fresh.flows().data(), scenario->flows.data());
}

}  // namespace
}  // namespace rap::serve
