// Metro-scale placement bench (DESIGN.md §13): a ~10^5-intersection grid
// city with 10^5 corridor flows, priced by the shop's two Dijkstra trees
// (traffic::DetourCalculator) and placed with the lazy greedy — end to end
// without ever materialising the n^2 distance matrix, which at this scale
// would be ~80 GB.
//
// Writes BENCH_scale.json in the rap.bench.v1 schema (bench/common.h) so
// tools/bench_compare gates the numbers against bench/baselines/: node and
// flow counts, the objective, gain evaluations and peak RSS (MiB) are
// strict; wall times and the rss-vs-dense ratio are loose. --max-wall-s /
// --max-rss-mb turn the run into a hard budget check (exit 1 on breach) —
// the CI scale-smoke job runs under exactly that contract.
//
//   scale [--side=317] [--flows=100000] [--k=8] [--max-trip=60]
//         [--out=BENCH_scale.json] [--max-wall-s=0] [--max-rss-mb=0]
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "src/citygen/grid_city.h"
#include "src/core/lazy_greedy.h"
#include "src/core/problem.h"
#include "src/traffic/detour.h"
#include "src/traffic/utility.h"
#include "src/util/cli.h"
#include "src/util/rng.h"

namespace {

using namespace rap;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Peak resident set size in MiB (VmHWM from /proc/self/status); 0 when the
/// platform does not expose it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0.0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

/// Corridor flows on the grid: bounded-length L-shaped trips (column leg
/// then row leg — a valid walk on the grid, and a shortest path under
/// uniform spacing). Generated directly from coordinates, so flow
/// construction costs no graph searches at all.
std::vector<traffic::TrafficFlow> corridor_flows(const citygen::GridCity& city,
                                                 std::size_t count,
                                                 std::size_t max_trip,
                                                 util::Rng& rng) {
  const std::size_t cols = city.spec().cols;
  const std::size_t rows = city.spec().rows;
  std::vector<traffic::TrafficFlow> flows;
  flows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t c0 = rng.next_below(cols);
    const std::size_t r0 = rng.next_below(rows);
    // Trip extents in [-max_trip/2, max_trip/2], clamped to the grid; a
    // degenerate zero-length trip is nudged one block east/west.
    const auto leg = [&](std::size_t at, std::size_t limit) {
      const auto span = static_cast<std::int64_t>(max_trip / 2);
      const std::int64_t delta =
          static_cast<std::int64_t>(rng.next_below(
              static_cast<std::uint64_t>(2 * span + 1))) -
          span;
      const std::int64_t target = static_cast<std::int64_t>(at) + delta;
      if (target < 0) return std::size_t{0};
      if (target >= static_cast<std::int64_t>(limit)) return limit - 1;
      return static_cast<std::size_t>(target);
    };
    std::size_t c1 = leg(c0, cols);
    const std::size_t r1 = leg(r0, rows);
    if (c1 == c0 && r1 == r0) c1 = c0 + 1 < cols ? c0 + 1 : c0 - 1;

    traffic::TrafficFlow flow;
    flow.origin = city.node_at(c0, r0);
    flow.destination = city.node_at(c1, r1);
    flow.path.reserve((c0 > c1 ? c0 - c1 : c1 - c0) +
                      (r0 > r1 ? r0 - r1 : r1 - r0) + 1);
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

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliFlags flags(argc, argv);
    const std::string out = flags.get_string("out", "BENCH_scale.json");
    const auto side = static_cast<std::size_t>(flags.get_int("side", 317));
    const auto flow_count =
        static_cast<std::size_t>(flags.get_int("flows", 100'000));
    const auto k = static_cast<std::size_t>(flags.get_int("k", 8));
    const auto max_trip =
        static_cast<std::size_t>(flags.get_int("max-trip", 60));
    const double max_wall_s = flags.get_double("max-wall-s", 0.0);
    const double max_rss_mb = flags.get_double("max-rss-mb", 0.0);

    const auto bench_start = Clock::now();

    auto stage = Clock::now();
    const citygen::GridCity city({side, side, 100.0});
    const graph::RoadNetwork& net = city.network();
    const double city_build_ms = ms_since(stage);

    stage = Clock::now();
    util::Rng rng(1);
    const std::vector<traffic::TrafficFlow> flows =
        corridor_flows(city, flow_count, max_trip, rng);
    const double flows_build_ms = ms_since(stage);

    const graph::NodeId shop = city.center_node();

    // The detour engine: one reverse and one forward Dijkstra from the shop.
    stage = Clock::now();
    auto engine = std::make_unique<traffic::DetourCalculator>(net, shop);
    const double engine_build_ms = ms_since(stage);

    stage = Clock::now();
    const traffic::LinearUtility utility(3'000.0);
    const core::PlacementProblem problem(net, flows, shop, utility,
                                         std::move(engine));
    const double problem_build_ms = ms_since(stage);

    stage = Clock::now();
    core::LazyGreedyStats greedy_stats;
    const core::PlacementResult placement =
        core::lazy_marginal_greedy_placement(problem, k, &greedy_stats);
    const double place_ms = ms_since(stage);

    const double total_ms = ms_since(bench_start);
    const double rss_mb = peak_rss_mb();
    const double n = static_cast<double>(net.num_nodes());
    // What the dense n^2 double matrix alone would occupy, in MiB — the
    // memory this subsystem exists to avoid. The headline ratio must stay
    // far below 1 (i.e. peak RSS sublinear in n^2).
    const double dense_matrix_mb = n * n * 8.0 / (1024.0 * 1024.0);
    const double rss_vs_dense = rss_mb > 0.0 ? rss_mb / dense_matrix_mb : 0.0;

    std::vector<bench::BenchMetric> metrics;
    metrics.push_back({"scale.nodes", n, "count", false});
    metrics.push_back({"scale.flows", static_cast<double>(problem.num_flows()),
                       "count", false});
    metrics.push_back({"scale.customers", placement.customers, "customers",
                       false});
    metrics.push_back({"scale.gain_evaluations",
                       static_cast<double>(greedy_stats.gain_evaluations),
                       "count", true});
    metrics.push_back({"scale.city_build_ms", city_build_ms, "ms", true});
    metrics.push_back({"scale.flows_build_ms", flows_build_ms, "ms", true});
    metrics.push_back({"scale.engine_build_ms", engine_build_ms, "ms", true});
    metrics.push_back({"scale.problem_build_ms", problem_build_ms, "ms",
                       true});
    metrics.push_back({"scale.place_ms", place_ms, "ms", true});
    metrics.push_back({"scale.total_ms", total_ms, "ms", true});
    metrics.push_back({"scale.peak_rss_mb", rss_mb, "MiB", true});
    metrics.push_back({"scale.rss_vs_dense_matrix", rss_vs_dense, "ratio",
                       true});
    bench::write_bench_json(out, "scale",
                            {{"side", std::to_string(side)},
                             {"flows", std::to_string(flow_count)},
                             {"k", std::to_string(k)},
                             {"max_trip", std::to_string(max_trip)},
                             {"engine", "dijkstra"}},
                            metrics);

    std::cout << "scale: " << net.num_nodes() << " nodes, "
              << problem.num_flows() << " flows, k=" << k << "\n"
              << "  city " << city_build_ms << " ms, flows " << flows_build_ms
              << " ms, engine " << engine_build_ms << " ms, problem "
              << problem_build_ms << " ms, place " << place_ms << " ms\n"
              << "  objective " << placement.customers << " customers, "
              << greedy_stats.gain_evaluations << " gain evaluation(s)\n"
              << "  peak RSS " << rss_mb << " MiB vs " << dense_matrix_mb
              << " MiB dense matrix (ratio " << rss_vs_dense << "); wrote "
              << out << "\n";

    bool over_budget = false;
    if (max_wall_s > 0.0 && total_ms > max_wall_s * 1'000.0) {
      std::cerr << "scale: BUDGET EXCEEDED: wall " << total_ms / 1'000.0
                << " s > " << max_wall_s << " s\n";
      over_budget = true;
    }
    if (max_rss_mb > 0.0 && rss_mb > max_rss_mb) {
      std::cerr << "scale: BUDGET EXCEEDED: peak RSS " << rss_mb << " MiB > "
                << max_rss_mb << " MiB\n";
      over_budget = true;
    }
    return over_budget ? 1 : 0;
  } catch (const std::exception& error) {
    std::cerr << "scale: " << error.what() << "\n";
    return 1;
  }
}
