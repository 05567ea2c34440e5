#include "bench/e2e/inputs.h"

#include <utility>

#include "src/citygen/grid_city.h"
#include "src/graph/io.h"
#include "src/obs/json.h"
#include "src/trace/io.h"
#include "src/traffic/flow.h"

namespace rap::bench::e2e {
namespace {

/// Corridor flows: a column leg then a row leg from a uniform origin, each
/// leg at most max_trip/2 blocks — a shortest path on the uniform grid, and
/// built without any graph search.
std::vector<traffic::TrafficFlow> corridor_flows(const citygen::GridCity& city,
                                                 std::size_t count,
                                                 std::size_t max_trip,
                                                 util::Rng& rng) {
  const std::size_t cols = city.spec().cols;
  const std::size_t rows = city.spec().rows;
  const auto span = static_cast<std::int64_t>(max_trip / 2);
  const auto leg = [&](std::size_t at, std::size_t limit) {
    const std::int64_t target =
        static_cast<std::int64_t>(at) +
        static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(2 * span + 1))) -
        span;
    if (target < 0) return std::size_t{0};
    if (target >= static_cast<std::int64_t>(limit)) return limit - 1;
    return static_cast<std::size_t>(target);
  };
  std::vector<traffic::TrafficFlow> flows;
  flows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t c0 = rng.next_below(cols);
    const std::size_t r0 = rng.next_below(rows);
    std::size_t c1 = leg(c0, cols);
    const std::size_t r1 = leg(r0, rows);
    if (c1 == c0 && r1 == r0) c1 = c0 + 1 < cols ? c0 + 1 : c0 - 1;
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

}  // namespace

GridParams metro_params(Size size) {
  return size == Size::kFull ? GridParams{141, 100'000, 60}
                             : GridParams{41, 4'000, 20};
}

GridParams mid_params(Size size) {
  return size == Size::kFull ? GridParams{64, 20'000, 60}
                             : GridParams{24, 2'000, 16};
}

GridScenario write_grid_scenario(const GridParams& params, std::uint64_t seed,
                                 const std::filesystem::path& dir,
                                 const std::string& stem) {
  const citygen::GridCity city({params.side, params.side, 100.0});
  util::Rng rng(seed);
  const std::vector<traffic::TrafficFlow> flows =
      corridor_flows(city, params.flows, params.max_trip, rng);
  GridScenario scenario;
  scenario.params = params;
  scenario.network_path =
      std::filesystem::absolute(dir / (stem + ".network.csv"));
  scenario.flows_path = std::filesystem::absolute(dir / (stem + ".flows.csv"));
  scenario.shop = city.center_node();
  scenario.nodes = city.network().num_nodes();
  graph::write_network_csv(scenario.network_path, city.network());
  trace::write_flows_csv(scenario.flows_path, flows);
  return scenario;
}

std::string load_line(const GridScenario& scenario) {
  return R"({"op":"load","network_path":)" +
         obs::json_quote(scenario.network_path) +
         R"(,"flows_path":)" + obs::json_quote(scenario.flows_path) +
         R"(,"shop":)" + std::to_string(scenario.shop) +
         R"(,"utility":"linear","d":)" +
         obs::json_number_repr(scenario.params.range) + "}";
}

std::string city_load_line(const std::string& city, std::uint64_t seed) {
  return R"({"op":"load","city":")" + city + R"(","seed":)" +
         std::to_string(seed) + "}";
}

std::string place_line(std::size_t k) {
  return R"({"op":"place","k":)" + std::to_string(k) + "}";
}

std::string evaluate_line(std::span<const graph::NodeId> nodes) {
  std::string line = R"({"op":"evaluate","nodes":[)";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(nodes[i]);
  }
  return line + "]}";
}

std::vector<std::uint64_t> city_seeds(std::uint64_t seed) {
  util::SplitMix64 mix(seed ^ 0xc17ULL);
  std::vector<std::uint64_t> seeds(100);
  // Small seeds keep the request lines short; the generators are seeded
  // by value, so any distinct values serve.
  for (std::uint64_t& s : seeds) s = mix.next() % 1'000'000;
  return seeds;
}

DeltaStream::DeltaStream(std::uint64_t seed, std::size_t conn,
                         std::size_t nodes, std::size_t flows)
    : rng_(util::Rng(seed).fork(0xde17a + conn)),
      nodes_(nodes),
      flows_(flows) {}

std::string DeltaStream::next_line() {
  std::string op;
  switch (step_++ % 3) {
    case 0: {
      const std::uint64_t origin = rng_.next_below(nodes_);
      std::uint64_t destination = rng_.next_below(nodes_ - 1);
      if (destination >= origin) ++destination;
      op = R"({"kind":"add_flow","origin":)" + std::to_string(origin) +
           R"(,"destination":)" + std::to_string(destination) +
           R"(,"vehicles":)" + std::to_string(1 + rng_.next_below(50)) +
           R"(,"passengers_per_vehicle":1,"alpha":1})";
      ++flows_;
      break;
    }
    case 1:
      op = R"({"kind":"scale_flow","index":)" +
           std::to_string(rng_.next_below(flows_)) + R"(,"factor":1.5})";
      break;
    default:
      op = R"({"kind":"remove_flow","index":)" +
           std::to_string(rng_.next_below(flows_)) + "}";
      --flows_;
      break;
  }
  return R"({"op":"delta","ops":[)" + op + "]}";
}

}  // namespace rap::bench::e2e
