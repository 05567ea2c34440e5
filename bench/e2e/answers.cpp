#include "bench/e2e/answers.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "src/traffic/flow.h"

namespace rap::bench::e2e {
namespace {

using serve::JsonValue;

double number_or(const JsonValue::Object& object, const char* key,
                 double fallback) {
  const JsonValue* value = serve::find_field(object, key);
  return value != nullptr ? value->as_number() : fallback;
}

const JsonValue::Array& array_field(const JsonValue::Object& object,
                                    const char* key) {
  const JsonValue* value = serve::find_field(object, key);
  if (value == nullptr) {
    throw std::invalid_argument(std::string("missing field ") + key);
  }
  return value->as_array();
}

}  // namespace

std::optional<JsonValue::Object> ok_response(const std::string& line) {
  try {
    JsonValue parsed = serve::parse_json(line);
    if (!parsed.is_object()) return std::nullopt;
    const JsonValue* ok = serve::find_field(parsed.as_object(), "ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return std::nullopt;
    return std::move(parsed.as_object());
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<PlaceAnswer> place_answer(const std::string& line) {
  const std::optional<JsonValue::Object> response = ok_response(line);
  if (!response) return std::nullopt;
  try {
    const JsonValue* result = serve::find_field(*response, "result");
    if (result == nullptr) return std::nullopt;
    PlaceAnswer answer;
    const JsonValue::Object& object = result->as_object();
    for (const JsonValue& node : array_field(object, "nodes")) {
      answer.nodes.push_back(static_cast<graph::NodeId>(node.as_number()));
    }
    answer.customers = serve::require_number(object, "customers");
    return answer;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<double> number_field(const std::string& line, const char* key) {
  const std::optional<JsonValue::Object> response = ok_response(line);
  if (!response) return std::nullopt;
  const JsonValue* value = serve::find_field(*response, key);
  if (value == nullptr || !value->is_number()) return std::nullopt;
  return value->as_number();
}

bool plausible(const PlaceAnswer& answer, std::size_t k, std::size_t nodes) {
  const std::set<graph::NodeId> distinct(answer.nodes.begin(),
                                         answer.nodes.end());
  if (answer.nodes.empty() || answer.nodes.size() > k ||
      distinct.size() != answer.nodes.size() || *distinct.rbegin() >= nodes) {
    return false;
  }
  return std::isfinite(answer.customers) && answer.customers > 0.0;
}

serve::ScenarioSpec spec_of_load(const JsonValue::Object& request) {
  serve::ScenarioSpec spec;
  spec.city = serve::get_string(request, "city", "");
  spec.seed = static_cast<std::uint64_t>(number_or(request, "seed", 1.0));
  spec.journeys =
      static_cast<std::size_t>(number_or(request, "journeys", 100.0));
  spec.network_path = serve::get_string(request, "network_path", "");
  spec.flows_path = serve::get_string(request, "flows_path", "");
  spec.utility = serve::get_string(request, "utility", "linear");
  spec.range = number_or(request, "d", 2'500.0);
  if (const JsonValue* shop = serve::find_field(request, "shop")) {
    spec.shop = static_cast<graph::NodeId>(shop->as_number());
  }
  spec.shop_class = serve::get_string(request, "shop_class", "city");
  return spec;
}

std::vector<serve::DeltaOp> deltas_of_request(const JsonValue::Object& request,
                                              const graph::RoadNetwork& net) {
  std::vector<serve::DeltaOp> ops;
  for (const JsonValue& value :
       array_field(request, "ops")) {
    const JsonValue::Object& object = value.as_object();
    const std::string& kind = serve::require_string(object, "kind");
    serve::DeltaOp op;
    if (kind == "add_flow") {
      op.kind = serve::DeltaOp::Kind::kAddFlow;
      op.flow = traffic::make_shortest_path_flow(
          net,
          static_cast<graph::NodeId>(serve::require_number(object, "origin")),
          static_cast<graph::NodeId>(
              serve::require_number(object, "destination")),
          number_or(object, "vehicles", 1.0),
          number_or(object, "passengers_per_vehicle", 1.0),
          number_or(object, "alpha", 0.001));
    } else {
      op.kind = kind == "remove_flow" ? serve::DeltaOp::Kind::kRemoveFlow
                                      : serve::DeltaOp::Kind::kScaleFlow;
      op.index =
          static_cast<std::size_t>(serve::require_number(object, "index"));
      op.factor = number_or(object, "factor", 1.0);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::size_t budget_of(const JsonValue::Object& request) {
  return static_cast<std::size_t>(serve::require_number(request, "k"));
}

std::vector<graph::NodeId> nodes_of(const JsonValue::Object& request) {
  std::vector<graph::NodeId> nodes;
  for (const JsonValue& node :
       array_field(request, "nodes")) {
    nodes.push_back(static_cast<graph::NodeId>(node.as_number()));
  }
  return nodes;
}

std::uint64_t digest(const std::vector<PlaceAnswer>& answers) {
  std::uint64_t hash = serve::fnv1a64("rap_bench.placements");
  for (const PlaceAnswer& answer : answers) {
    std::string text;
    for (const graph::NodeId node : answer.nodes) {
      text += std::to_string(node);
      text += ',';
    }
    char customers[40];
    std::snprintf(customers, sizeof customers, "%a;", answer.customers);
    hash = serve::fnv1a64(text + customers, hash);
  }
  return hash;
}

std::shared_ptr<const serve::ServeScenario> build_in_process(
    const std::string& load_line) {
  const serve::ScenarioSpec spec =
      spec_of_load(serve::parse_json(load_line).as_object());
  return serve::build_scenario(spec, serve::scenario_key(spec));
}

}  // namespace rap::bench::e2e
