// Ablation bench for the design choices DESIGN.md calls out:
//
//   1. Composite greedy (Algorithm 2) vs the naive total-marginal-gain
//      greedy vs the coverage-only greedy (factor (i) alone) vs the exact
//      optimum on small instances — quantifies what the overlap-aware
//      candidate (ii) buys and how close each lands to optimal.
//   2. Detour d''' reading: along-path vs shortest-path on trace-extracted
//      (imperfect) paths — justifies the library's along-path rule. The
//      shortest-path side is priced here by ShortestPathDetours, a
//      bench-local DetourSource; the library keeps only the along-path one.
//   3. Route flexibility: the same placements valued under fixed-path vs
//      flexible routing — the Fig. 12 vs Fig. 13 mechanism in isolation.
//   4. Lazy (CELF) greedy: identical output to the eager greedy with a
//      fraction of the gain evaluations — the k|V||T| term in practice.
//   5. Detour preprocessing: the paper's all-pairs table vs the per-shop
//      Dijkstra engine, per-shop pricing time. The Dijkstra side is the
//      library's DetourCalculator; the table side is a short loop here that
//      reads d' and d'' off bench::all_pairs_rows, d''' off
//      graph::cumulative_lengths, and prices with detour_distance.
//
// Flags: --instances (default 30), --seed, --k (default 6).
#include <chrono>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "bench/common.h"
#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/exhaustive.h"
#include "src/core/greedy.h"
#include "src/core/lazy_greedy.h"
#include "src/core/local_search.h"
#include "src/graph/path.h"
#include "src/manhattan/flexible_eval.h"
#include "src/traffic/detour.h"
#include "src/util/cli.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/strings.h"

namespace {

using namespace rap;

void print_row(const std::string& label, const util::RunningStats& stats) {
  std::cout << util::pad(label, -28) << util::pad(util::format_fixed(stats.mean(), 3), 10)
            << util::pad(util::format_fixed(stats.min(), 3), 10)
            << util::pad(util::format_fixed(stats.max(), 3), 10) << "\n";
}

// Ablation 2's other reading of d''': the network shortest-path distance
// v -> j, from one reverse tree per distinct destination, priced through the
// library's detour rule.
class ShortestPathDetours final : public traffic::DetourSource {
 public:
  ShortestPathDetours(const graph::RoadNetwork& net, graph::NodeId shop,
                      const std::vector<traffic::TrafficFlow>& flows)
      : net_(net), shop_(net, shop) {
    for (const traffic::TrafficFlow& flow : flows) {
      if (to_destination_.contains(flow.destination)) continue;
      to_destination_.emplace(
          flow.destination,
          graph::dijkstra(net, flow.destination, graph::Direction::kReverse));
    }
  }

 private:
  void price_path(const traffic::TrafficFlow& flow,
                  std::span<double> out) const override {
    if (!graph::is_walk(net_, flow.path)) {
      throw std::invalid_argument(traffic::kNotAWalk);
    }
    const graph::ShortestPathTree& direct = to_destination_.at(flow.destination);
    const double d2 = shop_.from_shop()[flow.destination];
    for (std::size_t i = 0; i < out.size(); ++i) {
      const graph::NodeId v = flow.path[i];
      out[i] = traffic::detour_distance(shop_.to_shop()[v], d2,
                                        direct.distance(v));
    }
  }

  const graph::RoadNetwork& net_;
  traffic::DetourCalculator shop_;
  std::unordered_map<graph::NodeId, graph::ShortestPathTree> to_destination_;
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliFlags flags(argc, argv);
  const auto instances = static_cast<std::size_t>(flags.get_int("instances", 30));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto k = static_cast<std::size_t>(flags.get_int("k", 6));
  for (const std::string& flag : flags.unused()) {
    std::cerr << "unknown flag --" << flag << "\n";
    return 2;
  }

  // ---- Ablation 1: greedy variants vs optimum on small Seattle workloads.
  // Tight k and D make RAP overlaps matter (the Fig. 4 phenomenon) so the
  // variants actually separate from the optimum.
  const std::size_t k_small = 3;
  std::cout << "# ablation 1: greedy objective (values normalised by the "
               "exact optimum; k="
            << k_small << ", linear utility, D=1200 ft)\n";
  util::RunningStats composite_ratio;
  util::RunningStats naive_ratio;
  util::RunningStats coverage_ratio;
  util::RunningStats refined_ratio;
  for (std::size_t i = 0; i < instances; ++i) {
    const bench::CityWorkload city = bench::build_seattle(seed + i, 25);
    const traffic::LinearUtility utility(1'200.0);
    util::Rng rng(seed + i);
    const auto shop = static_cast<graph::NodeId>(
        rng.next_below(city.net->num_nodes()));
    const core::PlacementProblem problem(*city.net, city.workload.flows, shop,
                                         utility);
    double opt = 0.0;
    try {
      opt = core::exhaustive_optimal_placement(problem, k_small, {2'000'000})
                .customers;
    } catch (const std::runtime_error&) {
      continue;  // instance too dense for the exact oracle — skip
    }
    if (opt <= 0.0) continue;
    composite_ratio.add(
        core::composite_greedy_placement(problem, k_small).customers / opt);
    naive_ratio.add(
        core::naive_marginal_greedy_placement(problem, k_small).customers / opt);
    coverage_ratio.add(
        core::greedy_coverage_placement(problem, k_small).customers / opt);
    refined_ratio.add(
        core::greedy_with_local_search(problem, k_small).placement.customers /
        opt);
  }
  std::cout << util::pad("variant", -28) << util::pad("mean", 10)
            << util::pad("min", 10) << util::pad("max", 10) << "\n";
  print_row("Algorithm2 (composite)", composite_ratio);
  print_row("naive marginal greedy", naive_ratio);
  print_row("coverage-only greedy", coverage_ratio);
  print_row("Algorithm2 + local search", refined_ratio);
  std::cout << "(1 - 1/sqrt(e) = 0.393 is Algorithm 2's worst-case bound)\n\n";

  // ---- Ablation 2: d''' along-path vs shortest-path on one workload.
  std::cout << "# ablation 2: detour d''' mode (composite greedy value, "
               "Dublin workload, linear, D=20000 ft)\n";
  {
    const bench::CityWorkload city = bench::build_dublin(seed, 80);
    const traffic::LinearUtility utility(20'000.0);
    util::RunningStats along;
    util::RunningStats shortest;
    util::Rng rng(seed);
    for (std::size_t i = 0; i < std::min<std::size_t>(instances, 10); ++i) {
      const auto shop = static_cast<graph::NodeId>(
          rng.next_below(city.net->num_nodes()));
      const core::PlacementProblem a(*city.net, city.workload.flows, shop,
                                     utility);
      const core::PlacementProblem s(
          *city.net, city.workload.flows, shop, utility,
          std::make_unique<ShortestPathDetours>(*city.net, shop,
                                                city.workload.flows));
      along.add(core::composite_greedy_placement(a, k).customers);
      shortest.add(core::composite_greedy_placement(s, k).customers);
    }
    std::cout << util::pad("mode", -28) << util::pad("mean", 10)
              << util::pad("min", 10) << util::pad("max", 10) << "\n";
    print_row("d''' along path", along);
    print_row("d''' shortest path", shortest);
    std::cout << "(identical on perfectly shortest paths; extraction noise "
                 "creates the gap)\n\n";
  }

  // ---- Ablation 3: fixed-path vs flexible routing for the same placement.
  std::cout << "# ablation 3: route flexibility (Algorithm 2 placement "
               "valued under both models, Seattle, threshold, D=2500 ft)\n";
  {
    const bench::CityWorkload city = bench::build_seattle(seed, 60);
    const traffic::ThresholdUtility utility(2'500.0);
    util::RunningStats fixed_value;
    util::RunningStats flexible_value;
    util::Rng rng(seed + 99);
    for (std::size_t i = 0; i < std::min<std::size_t>(instances, 10); ++i) {
      const auto shop = static_cast<graph::NodeId>(
          rng.next_below(city.net->num_nodes()));
      const core::PlacementProblem fixed(*city.net, city.workload.flows, shop,
                                         utility);
      const manhattan::FlexibleProblem flexible(*city.net, city.workload.flows,
                                                shop, utility);
      const core::Placement placement =
          core::composite_greedy_placement(fixed, k).nodes;
      fixed_value.add(core::evaluate_placement(fixed, placement));
      flexible_value.add(core::evaluate_placement(flexible, placement));
    }
    std::cout << util::pad("routing model", -28) << util::pad("mean", 10)
              << util::pad("min", 10) << util::pad("max", 10) << "\n";
    print_row("fixed paths (Fig. 12)", fixed_value);
    print_row("flexible routing (Fig. 13)", flexible_value);
    std::cout << "(flexibility never reduces a placement's value)\n\n";
  }

  // ---- Ablation 4: lazy vs eager greedy work.
  std::cout << "# ablation 4: lazy (CELF) greedy vs eager gain evaluations "
               "(Dublin workload, k=10)\n";
  {
    const bench::CityWorkload city = bench::build_dublin(seed, 120);
    const traffic::LinearUtility utility(20'000.0);
    util::Rng rng(seed + 7);
    util::RunningStats eager_evals;
    util::RunningStats lazy_evals;
    for (std::size_t i = 0; i < std::min<std::size_t>(instances, 10); ++i) {
      const auto shop = static_cast<graph::NodeId>(
          rng.next_below(city.net->num_nodes()));
      const core::PlacementProblem problem(*city.net, city.workload.flows,
                                           shop, utility);
      core::LazyGreedyStats stats;
      const auto lazy = core::lazy_marginal_greedy_placement(problem, 10, &stats);
      const auto eager = core::naive_marginal_greedy_placement(problem, 10);
      if (lazy.nodes != eager.nodes) {
        std::cerr << "lazy/eager divergence — bug!\n";
        return 1;
      }
      // Eager evaluates every unplaced node per step.
      eager_evals.add(static_cast<double>(10 * city.net->num_nodes()));
      lazy_evals.add(static_cast<double>(stats.gain_evaluations));
    }
    std::cout << util::pad("variant", -28) << util::pad("mean evals", 12) << "\n";
    std::cout << util::pad("eager greedy", -28)
              << util::pad(util::format_fixed(eager_evals.mean(), 0), 12) << "\n";
    std::cout << util::pad("lazy (CELF) greedy", -28)
              << util::pad(util::format_fixed(lazy_evals.mean(), 0), 12) << "\n";
    std::cout << "(identical placements; see tests/core/lazy_greedy_test)\n\n";
  }

  // ---- Ablation 5: detour preprocessing strategy.
  std::cout << "# ablation 5: detour preprocessing (Dublin network, "
               "wall-clock per shop)\n";
  {
    const bench::CityWorkload city = bench::build_dublin(seed, 80);
    const auto time_of = [](auto&& fn) {
      const auto start = std::chrono::steady_clock::now();
      fn();
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };
    const double dijkstra_ms = time_of([&] {
      for (graph::NodeId shop = 0; shop < 20; ++shop) {
        const traffic::DetourCalculator calc(*city.net, shop);
        for (const auto& flow : city.workload.flows) {
          (void)calc.detours_along_path(flow);
        }
      }
    });
    const std::vector<std::vector<double>> rows =
        bench::all_pairs_rows(*city.net);
    const double apsp_ms = time_of([&] {
      for (graph::NodeId shop = 0; shop < 20; ++shop) {
        for (const auto& flow : city.workload.flows) {
          std::vector<double> out =
              graph::cumulative_lengths(*city.net, flow.path);
          const double total = out.back();
          const double d2 = rows[shop][flow.destination];  // d''
          for (std::size_t i = 0; i < out.size(); ++i) {
            out[i] = traffic::detour_distance(rows[flow.path[i]][shop], d2,
                                              total - out[i]);  // d', d'''
          }
        }
      }
    });
    std::cout << util::pad("per-shop Dijkstra engine", -30)
              << util::pad(util::format_fixed(dijkstra_ms / 20.0, 3), 10)
              << " ms/shop\n";
    std::cout << util::pad("shared APSP matrix (paper)", -30)
              << util::pad(util::format_fixed(apsp_ms / 20.0, 3), 10)
              << " ms/shop (after one APSP build)\n";
  }
  return 0;
}
