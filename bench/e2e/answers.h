// What the benchmark reads out of rap.serve.v1 lines, and the request
// fields it turns back into library calls — shared by the socket run's
// output checks and the in-process replay.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/road_network.h"
#include "src/serve/delta.h"
#include "src/serve/protocol.h"
#include "src/serve/scenario_cache.h"

namespace rap::bench::e2e {

/// The answer of a `place` request.
struct PlaceAnswer {
  std::vector<graph::NodeId> nodes;
  double customers = 0.0;

  friend bool operator==(const PlaceAnswer&, const PlaceAnswer&) = default;
};

/// The answer an in-process placement gives.
[[nodiscard]] inline PlaceAnswer answer_of(
    const serve::WarmStartResult& result) {
  return {result.placement.nodes, result.placement.customers};
}

/// The parsed response when it is a well-formed ok response, else nullopt.
[[nodiscard]] std::optional<serve::JsonValue::Object> ok_response(
    const std::string& line);

/// The placement of an ok `place` response.
[[nodiscard]] std::optional<PlaceAnswer> place_answer(const std::string& line);

/// A numeric field of an ok response ("customers" of evaluate, "flows" of
/// delta and load, ...).
[[nodiscard]] std::optional<double> number_field(const std::string& line,
                                                 const char* key);

/// A placement is plausible when it names 1..k distinct intersections below
/// `nodes` and a finite, positive objective.
[[nodiscard]] bool plausible(const PlaceAnswer& answer, std::size_t k,
                             std::size_t nodes);

/// The scenario a `load` request names, as the server reads it.
[[nodiscard]] serve::ScenarioSpec spec_of_load(
    const serve::JsonValue::Object& request);

/// The mutations of a `delta` request, built on `net` as the server builds
/// them (add_flow travels a shortest path).
[[nodiscard]] std::vector<serve::DeltaOp> deltas_of_request(
    const serve::JsonValue::Object& request, const graph::RoadNetwork& net);

/// The request's "k" / "nodes" fields.
[[nodiscard]] std::size_t budget_of(const serve::JsonValue::Object& request);
[[nodiscard]] std::vector<graph::NodeId> nodes_of(
    const serve::JsonValue::Object& request);

/// Placement digest: FNV-1a over each placement's nodes and objective bits,
/// chained in order.
[[nodiscard]] std::uint64_t digest(const std::vector<PlaceAnswer>& answers);

/// The scenario a load request builds, built in-process.
[[nodiscard]] std::shared_ptr<const serve::ServeScenario> build_in_process(
    const std::string& load_line);

}  // namespace rap::bench::e2e
