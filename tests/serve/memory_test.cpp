// Memory held by a load and by a session's deltas (DESIGN.md §13.1): the
// file reader sizes its flow table exactly, a delta never holds two
// private coverage tables at once, and a rebuild that runs out of memory
// leaves the session consistent.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/citygen/grid_city.h"
#include "src/core/evaluator.h"
#include "src/core/lazy_greedy.h"
#include "src/serve/session.h"
#include "src/trace/io.h"
#include "src/traffic/flow.h"
#include "src/util/rng.h"
#include "tests/testing/builders.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RAP_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RAP_TEST_SANITIZED 1
#endif
#endif

namespace {

// While positive on a thread, counts that thread's operator new calls down;
// the call that finds it at zero throws std::bad_alloc. -1 disarms it.
thread_local long t_allocations_left = -1;

}  // namespace

void* operator new(std::size_t size) {
  if (t_allocations_left == 0) {
    t_allocations_left = -1;
    throw std::bad_alloc();
  }
  if (t_allocations_left > 0) --t_allocations_left;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

// The replacement new above takes its blocks from malloc, so free is the
// matching release; GCC cannot see the pairing across the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
#pragma GCC diagnostic pop

namespace rap::serve {
namespace {

/// This process's peak resident set (VmHWM), KiB; -1 when unreadable.
long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

/// Runs `body` in a forked child and returns what it returns, or -1 when
/// the child throws, dies or cannot report. `body` must not use the thread
/// pool: the child has only the forking thread.
long run_in_child(const std::function<long()>& body) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t child = fork();
  if (child < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (child == 0) {
    close(fds[0]);
    long result = -1;
    try {
      result = body();
    } catch (...) {
    }
    const bool sent = write(fds[1], &result, sizeof result) == sizeof result;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  long result = -1;
  const bool received = read(fds[0], &result, sizeof result) == sizeof result;
  close(fds[0]);
  int status = 0;
  const bool exited = waitpid(child, &status, 0) == child &&
                      WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return received && exited ? result : -1;
}

TEST(FlowsCsv, FileReaderSizesTheTableExactly) {
  const auto net = rap::testing::line_network(6);
  std::vector<traffic::TrafficFlow> flows;
  for (graph::NodeId to = 1; to < 6; ++to) {
    flows.push_back(traffic::make_shortest_path_flow(net, 0, to, 2.0));
  }
  const auto dir = std::filesystem::temp_directory_path() / "rap_flow_sizing";
  std::filesystem::remove_all(dir);
  const auto path = dir / "flows.csv";
  trace::write_flows_csv(path, flows);

  const std::vector<traffic::TrafficFlow> from_file =
      trace::read_flows_csv(net, path);
  const std::vector<traffic::TrafficFlow> inline_text =
      trace::flows_from_csv(net, trace::flows_to_csv(flows));
  std::filesystem::remove_all(dir);
  ASSERT_EQ(from_file.size(), flows.size());
  EXPECT_TRUE(from_file == flows);
  // The bound counts the header's line break too.
  EXPECT_LE(from_file.capacity(), from_file.size() + 1);
  EXPECT_LE(inline_text.capacity(), inline_text.size() + 1);
}

/// `count` L-shaped flows on `city` (a column leg, then a row leg, each at
/// most `max_trip` / 2 blocks): shortest paths, drawn without a search.
std::vector<traffic::TrafficFlow> corridor_flows(const citygen::GridCity& city,
                                                 std::size_t count,
                                                 std::size_t max_trip,
                                                 util::Rng& rng) {
  const std::size_t side = city.spec().cols;
  const std::size_t half = max_trip / 2;
  const auto leg = [&](std::size_t at) {
    const std::size_t low = at > half ? at - half : 0;
    const std::size_t high = std::min(side - 1, at + half);
    return low + rng.next_below(high - low + 1);
  };
  std::vector<traffic::TrafficFlow> flows;
  flows.reserve(count);
  while (flows.size() < count) {
    const std::size_t c0 = rng.next_below(side);
    const std::size_t r0 = rng.next_below(side);
    const std::size_t c1 = leg(c0);
    const std::size_t r1 = leg(r0);
    if (c1 == c0 && r1 == r0) continue;
    traffic::TrafficFlow flow;
    flow.origin = city.node_at(c0, r0);
    flow.destination = city.node_at(c1, r1);
    for (std::size_t c = c0;; c = c < c1 ? c + 1 : c - 1) {
      flow.path.push_back(city.node_at(c, r0));
      if (c == c1) break;
    }
    for (std::size_t r = r0; r != r1;) {
      r = r < r1 ? r + 1 : r - 1;
      flow.path.push_back(city.node_at(c1, r));
    }
    flow.daily_vehicles = 1.0 + static_cast<double>(rng.next_below(50));
    flows.push_back(std::move(flow));
  }
  return flows;
}

/// A scenario the size of the delta_churn workload's: a 64 x 64 grid with
/// 20,000 flows, the shop at its centre, a linear utility of range 3,000.
std::shared_ptr<const ServeScenario> grid_scenario() {
  const citygen::GridCity city({64, 64, 100.0});
  util::Rng rng(7);
  auto scenario = std::make_shared<ServeScenario>();
  scenario->net = city.network();
  scenario->flows = corridor_flows(city, 20'000, 60, rng);
  scenario->utility = traffic::make_utility(traffic::UtilityKind::kLinear,
                                            3'000.0);
  scenario->shop = city.center_node();
  derive_scenario(*scenario);
  return scenario;
}

/// The i-th of a cycle of add, scale and remove deltas on `flows` flows.
DeltaOp churn_delta(const graph::RoadNetwork& net, std::size_t i,
                    std::size_t flows, util::Rng& rng) {
  DeltaOp op;
  switch (i % 3) {
    case 0: {
      const auto origin =
          static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
      auto destination =
          static_cast<graph::NodeId>(rng.next_below(net.num_nodes() - 1));
      if (destination >= origin) ++destination;
      op.kind = DeltaOp::Kind::kAddFlow;
      op.flow = traffic::make_shortest_path_flow(
          net, origin, destination,
          static_cast<double>(1 + rng.next_below(50)));
      break;
    }
    case 1:
      op.kind = DeltaOp::Kind::kScaleFlow;
      op.index = rng.next_below(flows);
      op.factor = 1.5;
      break;
    default:
      op.kind = DeltaOp::Kind::kRemoveFlow;
      op.index = rng.next_below(flows);
      break;
  }
  return op;
}

// A delta frees the old private table before it prices the new one. With
// the two tables overlapping, these 60 deltas grew the peak by 18.0 MiB;
// without the overlap, by 12.4 MiB (the first delta's copy of the flows
// and its table included; RelWithDebInfo build, glibc malloc, x86-64).
TEST(SessionMemory, SixtyDeltasGrowPeakRssByAtMostFifteenMiB) {
#ifdef RAP_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer allocators and shadow memory inflate the peak";
#endif
  const long growth = run_in_child([] {
    const auto scenario = grid_scenario();
    Session session(scenario);
    (void)session.place(8);
    util::Rng rng(11);
    const long before = peak_rss_kib();
    for (std::size_t i = 0; i < 60; ++i) {
      session.apply_delta(
          churn_delta(scenario->net, i, session.flows().size(), rng));
      (void)session.place(8);
    }
    const long after = peak_rss_kib();
    return before >= 0 && after >= 0 ? after - before : -1L;
  });
  ASSERT_GE(growth, 0) << "the child could not apply the deltas or read VmHWM";
  EXPECT_LE(growth, 15 * 1024)
      << "60 deltas grew the peak by " << growth << " KiB";
}

constexpr const char* kNetworkCsv =
    "node,0,0\nnode,1,0\nnode,2,0\nnode,0,1\nnode,1,1\nnode,2,1\n"
    "edge,0,1,1\nedge,1,0,1\nedge,1,2,1\nedge,2,1,1\nedge,3,4,1\n"
    "edge,4,3,1\nedge,4,5,1\nedge,5,4,1\nedge,0,3,1\nedge,3,0,1\n"
    "edge,1,4,1\nedge,4,1,1\nedge,2,5,1\nedge,5,2,1\n";

constexpr const char* kFlowsCsv =
    "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n"
    "0,5,12,2,0.5,0|1|4|5\n"
    "3,2,8,1,0.4,3|4|1|2\n"
    "0,2,6,3,0.3,0|1|2\n";

/// The session's model equals a problem built from scratch on its flows.
void expect_model_matches_flows(const Session& session) {
  const ServeScenario& scenario = session.scenario();
  const core::PlacementProblem reference(scenario.net, session.flows(),
                                         scenario.shop, *scenario.utility);
  for (graph::NodeId v = 0; v < scenario.net.num_nodes(); ++v) {
    const std::vector<graph::NodeId> nodes = {v};
    EXPECT_EQ(core::evaluate_placement(session.model(), nodes),
              core::evaluate_placement(reference, nodes))
        << "node " << v;
  }
}

// Fails every allocation of an add_flow delta in turn, on a session that
// already holds private flows and a warm state. Each failure must leave the
// session at the scenario's base state (or, before any mutation, where it
// was), and the session must go on serving correct placements.
TEST(SessionMemory, OutOfMemoryInARebuildReturnsToTheBaseState) {
  ScenarioSpec spec;
  spec.network_csv = kNetworkCsv;
  spec.flows_csv = kFlowsCsv;
  spec.range = 5.0;
  spec.shop = 4;
  const auto scenario = build_scenario(spec, scenario_key(spec));
  DeltaOp scale;
  scale.kind = DeltaOp::Kind::kScaleFlow;
  scale.index = 1;
  scale.factor = 2.0;
  DeltaOp add;
  add.flow = traffic::make_shortest_path_flow(scenario->net, 3, 2, 5.0);

  std::size_t base_states = 0;
  for (long fail_at = 0;; ++fail_at) {
    SCOPED_TRACE("allocation " + std::to_string(fail_at));
    Session session(scenario);
    session.apply_delta(scale);
    (void)session.place(2);
    const Session::Stats stats = session.stats();
    bool failed = false;
    t_allocations_left = fail_at;
    try {
      session.apply_delta(add);
    } catch (const std::bad_alloc&) {
      failed = true;
    }
    t_allocations_left = -1;
    if (!failed) {
      EXPECT_EQ(session.flows().size(), scenario->flows.size() + 1);
      break;
    }
    EXPECT_EQ(session.stats().deltas, stats.deltas);
    if (&session.flows() == &scenario->flows) {
      ++base_states;
      EXPECT_EQ(&session.model(),
                static_cast<const core::CoverageModel*>(
                    scenario->problem.get()));
      (void)session.place(2);
      EXPECT_EQ(session.stats().warm_attempts, stats.warm_attempts)
          << "a warm bound outlived its flows";
    } else {
      EXPECT_EQ(session.flows().size(), scenario->flows.size());
    }
    expect_model_matches_flows(session);
    session.apply_delta(add);
    expect_model_matches_flows(session);
    const core::PlacementProblem reference(scenario->net, session.flows(),
                                           scenario->shop, *scenario->utility);
    EXPECT_EQ(session.place(2).placement.nodes,
              core::lazy_marginal_greedy_placement(reference, 2).nodes);
    ASSERT_LT(fail_at, 10'000) << "apply_delta never completed";
  }
  EXPECT_GT(base_states, 0U);
}

}  // namespace
}  // namespace rap::serve
