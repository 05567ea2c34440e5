// Workload inputs, all drawn from the run's --seed: grid cities with
// corridor flows written as the CSV files a `load` request names, the
// rap.serve.v1 request lines of each operation, the per-connection delta
// streams of delta_churn and the city seeds of city_cold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "src/graph/road_network.h"
#include "src/util/rng.h"

namespace rap::bench::e2e {

/// Full-size runs are the benchmark; smoke runs are the same code on small
/// inputs for the ctest smoke test.
enum class Size { kFull, kSmoke };

/// A square grid city (100 ft blocks) with bounded-length L-shaped corridor
/// flows, the shop at the centre and a linear utility.
struct GridParams {
  std::size_t side = 0;
  std::size_t flows = 0;
  std::size_t max_trip = 0;  ///< blocks, both legs together at most this
  double range = 3'000.0;    ///< the linear utility's D, feet
};

/// metro_cold: 141 x 141 (19,881 intersections), 100,000 flows.
[[nodiscard]] GridParams metro_params(Size size);
/// serve_steady and delta_churn: 64 x 64 (4,096 intersections), 20,000 flows.
[[nodiscard]] GridParams mid_params(Size size);

/// The files of one grid scenario plus what a correct load must report.
struct GridScenario {
  GridParams params;
  std::string network_path;  ///< absolute
  std::string flows_path;    ///< absolute
  graph::NodeId shop = graph::kInvalidNode;
  std::size_t nodes = 0;
};

/// Generates the grid and its seeded flows and writes them as
/// `<dir>/<stem>.network.csv` and `<dir>/<stem>.flows.csv`.
[[nodiscard]] GridScenario write_grid_scenario(const GridParams& params,
                                               std::uint64_t seed,
                                               const std::filesystem::path& dir,
                                               const std::string& stem);

[[nodiscard]] std::string load_line(const GridScenario& scenario);
[[nodiscard]] std::string city_load_line(const std::string& city,
                                         std::uint64_t seed);
[[nodiscard]] std::string place_line(std::size_t k);
[[nodiscard]] std::string evaluate_line(std::span<const graph::NodeId> nodes);

/// The 100 city seeds a city_cold run cycles through.
[[nodiscard]] std::vector<std::uint64_t> city_seeds(std::uint64_t seed);

/// One connection's delta stream: add_flow, scale_flow x1.5, remove_flow,
/// repeating, with seeded endpoints and indices. Tracks the flow count the
/// server must report after each delta.
class DeltaStream {
 public:
  DeltaStream(std::uint64_t seed, std::size_t conn, std::size_t nodes,
              std::size_t flows);

  /// The next delta request line.
  [[nodiscard]] std::string next_line();
  /// Flow count after the last delta returned by next_line().
  [[nodiscard]] std::size_t flows() const noexcept { return flows_; }

 private:
  util::Rng rng_;
  std::size_t nodes_;
  std::size_t flows_;
  std::size_t step_ = 0;
};

}  // namespace rap::bench::e2e
