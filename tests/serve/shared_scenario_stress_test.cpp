// Serve layer on one shared scenario (ctest label "serve-stress", TSan'd in
// CI): every scenario is priced by the shop's two Dijkstra trees, the load
// response keeps reporting that engine to rap.serve.v1 clients, and
// concurrent sessions on one shared scenario — reading its base flows,
// applying private deltas, placing — must stay coherent and never touch the
// scenario itself.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/serve/protocol.h"
#include "src/serve/scenario_cache.h"
#include "src/serve/server.h"
#include "src/serve/session.h"
#include "src/traffic/flow.h"

namespace rap::serve {
namespace {

constexpr const char* kLoadRequest =
    R"({"op":"load","city":"grid","seed":3,"journeys":40,"d":1500})";

ScenarioSpec load_spec() {
  ScenarioSpec spec;
  spec.city = "grid";
  spec.seed = 3;
  spec.journeys = 40;
  spec.range = 1'500.0;
  return spec;
}

JsonValue handle(Server& server, const std::string& line) {
  return parse_json(server.handle_line(line));
}

JsonValue::Object expect_ok(const JsonValue& response) {
  const JsonValue::Object& object = response.as_object();
  EXPECT_TRUE(object.at("ok").as_bool()) << to_json(response);
  return object;
}

TEST(ServeSharedScenario, LoadReportsTheDijkstraEngine) {
  // The load response pins "engine" for clients; the summary carries no
  // engine suffix; the served placement equals an in-process session's.
  Server server;
  const JsonValue::Object load = expect_ok(handle(server, kLoadRequest));
  EXPECT_EQ(load.at("engine").as_string(), "dijkstra");
  EXPECT_EQ(load.at("summary").as_string().find("detours"), std::string::npos);

  const JsonValue::Object placed =
      expect_ok(handle(server, R"({"op":"place","k":6})"));
  const JsonValue::Object& result = placed.at("result").as_object();
  const ScenarioSpec spec = load_spec();
  Session reference(build_scenario(spec, scenario_key(spec)));
  const WarmStartResult want = reference.place(6, {});
  const JsonValue::Array& nodes = result.at("nodes").as_array();
  ASSERT_EQ(nodes.size(), want.placement.nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i].as_number(),
              static_cast<double>(want.placement.nodes[i]));
  }
  EXPECT_EQ(result.at("customers").as_number(), want.placement.customers);
}

TEST(ServeSharedScenario, ConcurrentSessionsShareOneScenario) {
  // Many sessions on one shared scenario, placing concurrently; odd threads
  // also apply a delta, which copies the base flows into the session and
  // must leave the shared scenario and its readers untouched.
  const ScenarioSpec spec = load_spec();
  const auto scenario = build_scenario(spec, scenario_key(spec));
  const traffic::TrafficFlow* const base_flows = scenario->flows.data();
  const std::size_t base_count = scenario->flows.size();
  ASSERT_GE(base_count, 2U);

  Session reference(scenario);
  const WarmStartResult want = reference.place(5, {});
  Session scaled_reference(scenario);
  DeltaOp scale;
  scale.kind = DeltaOp::Kind::kScaleFlow;
  scale.index = 1;
  scale.factor = 3.0;
  scaled_reference.apply_delta(scale);
  const WarmStartResult want_scaled = scaled_reference.place(5, {});

  constexpr int kThreads = 4;
  constexpr int kRoundsPerThread = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Session session(scenario);
      const bool delta = t % 2 == 1;
      if (delta) session.apply_delta(scale);
      const WarmStartResult& expected = delta ? want_scaled : want;
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const WarmStartResult got = session.place(5, {});
        if (got.placement.nodes != expected.placement.nodes ||
            got.placement.customers != expected.placement.customers ||
            (session.flows().data() == base_flows) == delta) {
          failures[t] = "thread " + std::to_string(t) + " round " +
                        std::to_string(round) + " diverged";
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  EXPECT_EQ(scenario->flows.data(), base_flows);
  EXPECT_EQ(scenario->flows.size(), base_count);
}

}  // namespace
}  // namespace rap::serve
