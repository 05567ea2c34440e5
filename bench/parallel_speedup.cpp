// Parallel speedup bench: times three parallel kernels — the all-pairs rows
// of the paper's preprocessing (bench::all_pairs_rows, reported as "apsp"),
// the coverage greedy (Algorithm 1), and the composite greedy (Algorithm 2)
// — on a 20x20 grid city at threads=1 vs threads=4 and writes the
// wall-clock ratios to BENCH_parallel.json in the rap.bench.v1 schema
// (bench/common.h).
// Determinism means the parallel runs also double as a correctness check:
// the bench aborts if any result differs from the serial run.
//
//   parallel_speedup [--out=BENCH_parallel.json] [--threads=4] [--trials=5]
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/citygen/grid_city.h"
#include "src/core/composite_greedy.h"
#include "src/core/greedy.h"
#include "src/core/problem.h"
#include "src/traffic/utility.h"
#include "src/util/cli.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace {

using namespace rap;

constexpr std::size_t kK = 8;

/// Best-of-N wall-clock time of `fn` in milliseconds.
template <typename Fn>
double time_best_ms(std::size_t trials, Fn&& fn) {
  double best = 1e300;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return best;
}

struct KernelTiming {
  std::string name;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  [[nodiscard]] double speedup() const {
    return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  }
};

std::vector<traffic::TrafficFlow> make_flows(const graph::RoadNetwork& net,
                                             std::size_t count,
                                             util::Rng& rng) {
  std::vector<traffic::TrafficFlow> flows;
  while (flows.size() < count) {
    const auto i = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
    const auto j = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
    if (i == j) continue;
    flows.push_back(traffic::make_shortest_path_flow(
        net, i, j, static_cast<double>(1 + rng.next_below(20)), 1.0, 0.5));
  }
  return flows;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliFlags flags(argc, argv);
    const std::string out = flags.get_string("out", "BENCH_parallel.json");
    const auto threads =
        static_cast<std::size_t>(flags.get_int("threads", 4));
    const auto trials = static_cast<std::size_t>(flags.get_int("trials", 5));

    const citygen::GridCity city({20, 20, 500.0, {0.0, 0.0}});
    const graph::RoadNetwork& net = city.network();
    util::Rng rng(1);
    auto flows = make_flows(net, 300, rng);
    const traffic::LinearUtility utility(6'000.0);
    const core::PlacementProblem problem(net, std::move(flows), 0, utility);

    std::vector<KernelTiming> timings;

    // All-pairs rows: 400 Dijkstra sources, 16-row chunks.
    {
      KernelTiming t{"apsp", 0.0, 0.0};
      util::set_parallel_config({1});
      const std::vector<std::vector<double>> serial =
          bench::all_pairs_rows(net);
      t.serial_ms =
          time_best_ms(trials, [&] { (void)bench::all_pairs_rows(net); });
      util::set_parallel_config({threads});
      const std::vector<std::vector<double>> parallel =
          bench::all_pairs_rows(net);
      t.parallel_ms =
          time_best_ms(trials, [&] { (void)bench::all_pairs_rows(net); });
      for (std::size_t i = 0; i < serial.size(); ++i) {
        for (std::size_t j = 0; j < serial.size(); ++j) {
          if (serial[i][j] != parallel[i][j]) {
            std::cerr << "determinism violation in apsp at (" << i << "," << j
                      << ")\n";
            return 1;
          }
        }
      }
      timings.push_back(t);
    }

    // The two placement algorithms (Algorithm 1 and Algorithm 2).
    const auto bench_alg = [&](const std::string& name, auto&& run) {
      KernelTiming t{name, 0.0, 0.0};
      util::set_parallel_config({1});
      const core::PlacementResult serial = run();
      t.serial_ms = time_best_ms(trials, [&] { (void)run(); });
      util::set_parallel_config({threads});
      const core::PlacementResult parallel = run();
      t.parallel_ms = time_best_ms(trials, [&] { (void)run(); });
      if (serial.nodes != parallel.nodes ||
          serial.customers != parallel.customers) {
        std::cerr << "determinism violation in " << name << "\n";
        std::exit(1);
      }
      timings.push_back(t);
    };
    bench_alg("greedy_coverage",
              [&] { return core::greedy_coverage_placement(problem, kK); });
    bench_alg("composite_greedy",
              [&] { return core::composite_greedy_placement(problem, kK); });

    const unsigned hw = std::thread::hardware_concurrency();
    std::vector<std::pair<std::string, std::string>> context = {
        {"city", "grid-20x20"},
        {"k", std::to_string(kK)},
        {"threads", std::to_string(threads)},
        {"trials", std::to_string(trials)},
        {"hardware_concurrency", std::to_string(hw)}};
    if (hw < threads) {
      // Speedup is bounded by physical cores; flag runs where the requested
      // thread count oversubscribes the host so readers don't misread the
      // ratios as the engine's ceiling.
      context.push_back({"note", "host has only " + std::to_string(hw) +
                                     " hardware thread(s); expect ~1x here, "
                                     ">=2x needs >= " +
                                     std::to_string(threads) + " cores"});
    }
    std::vector<bench::BenchMetric> metrics;
    for (const KernelTiming& t : timings) {
      metrics.push_back({t.name + ".serial_ms", t.serial_ms, "ms", true});
      metrics.push_back({t.name + ".parallel_ms", t.parallel_ms, "ms", true});
      metrics.push_back({t.name + ".speedup", t.speedup(), "x", false});
      std::cout << t.name << ": serial " << t.serial_ms << " ms, " << threads
                << " threads " << t.parallel_ms << " ms (" << t.speedup()
                << "x)\n";
    }
    bench::write_bench_json(out, "parallel_speedup", context, metrics);
    std::cout << "wrote " << out << "\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "parallel_speedup: " << error.what() << "\n";
    return 1;
  }
}
