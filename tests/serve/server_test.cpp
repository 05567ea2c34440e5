#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/events.h"
#include "src/obs/trace_export.h"
#include "src/serve/protocol.h"

namespace rap::serve {
namespace {

constexpr const char* kNetworkCsv =
    "node,0,0\\nnode,1,0\\nnode,0,1\\nnode,1,1\\n"
    "edge,0,1,1\\nedge,1,0,1\\nedge,0,2,1\\nedge,2,0,1\\n"
    "edge,1,3,1\\nedge,3,1,1\\nedge,2,3,1\\nedge,3,2,1\\n";

constexpr const char* kFlowsCsv =
    "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\\n"
    "0,3,10,2,0.5,0|1|3\\n"
    "2,1,5,1,0.25,2|3|1\\n";

/// The load request used throughout: inline CSVs (the \n above are literal
/// backslash-n inside the JSON string, decoded by the protocol layer).
std::string load_request() {
  return std::string(R"({"op":"load","network_csv":")") + kNetworkCsv +
         R"(","flows_csv":")" + kFlowsCsv +
         R"(","utility":"linear","d":4,"shop":0})";
}

JsonValue handle(Server& server, const std::string& line) {
  return parse_json(server.handle_line(line));
}

// Returns a copy: call sites bind it to a const reference (lifetime
// extended), so the response may be a temporary.
JsonValue::Object expect_ok(const JsonValue& response) {
  const JsonValue::Object& object = response.as_object();
  EXPECT_TRUE(object.at("ok").as_bool())
      << to_json(response);
  EXPECT_EQ(object.at("schema").as_string(), kServeSchema);
  return object;
}

std::string expect_error(const JsonValue& response) {
  const JsonValue::Object& object = response.as_object();
  EXPECT_FALSE(object.at("ok").as_bool());
  return object.at("error").as_object().at("code").as_string();
}

TEST(ServeServer, LoadPlaceEvaluateRoundTrip) {
  Server server;
  const JsonValue::Object& loaded = expect_ok(handle(server, load_request()));
  EXPECT_EQ(loaded.at("nodes").as_number(), 4.0);
  EXPECT_EQ(loaded.at("flows").as_number(), 2.0);
  EXPECT_FALSE(loaded.at("cached").as_bool());

  const JsonValue::Object& placed =
      expect_ok(handle(server, R"({"op":"place","k":2})"));
  const JsonValue::Object& result = placed.at("result").as_object();
  EXPECT_EQ(result.at("nodes").as_array().size(), 2U);
  const double customers = result.at("customers").as_number();
  EXPECT_GT(customers, 0.0);

  // Evaluating the returned placement reproduces the reported value.
  std::string nodes_json = to_json(result.at("nodes"));
  const JsonValue::Object& evaluated = expect_ok(
      handle(server, R"({"op":"evaluate","nodes":)" + nodes_json + "}"));
  EXPECT_EQ(evaluated.at("customers").as_number(), customers);
}

TEST(ServeServer, SecondLoadHitsTheCache) {
  Server server;
  expect_ok(handle(server, load_request()));
  const JsonValue::Object& second = expect_ok(handle(server, load_request()));
  EXPECT_TRUE(second.at("cached").as_bool());

  const JsonValue::Object& stats =
      expect_ok(handle(server, R"({"op":"stats"})"));
  const JsonValue::Object& cache = stats.at("cache").as_object();
  EXPECT_EQ(cache.at("hits").as_number(), 1.0);
  EXPECT_EQ(cache.at("misses").as_number(), 1.0);
  EXPECT_EQ(cache.at("entries").as_number(), 1.0);
}

TEST(ServeServer, DeltaThenWarmPlace) {
  Server server;
  expect_ok(handle(server, load_request()));
  expect_ok(handle(server, R"({"op":"place","k":2})"));
  const JsonValue::Object& delta = expect_ok(handle(
      server,
      R"({"op":"delta","ops":[{"kind":"add_flow","origin":1,"destination":2,)"
      R"("vehicles":8,"alpha":0.4},{"kind":"scale_flow","index":0,"factor":2}]})"));
  EXPECT_EQ(delta.at("applied").as_number(), 2.0);
  EXPECT_EQ(delta.at("flows").as_number(), 3.0);

  const JsonValue::Object& placed =
      expect_ok(handle(server, R"({"op":"place","k":2})"));
  EXPECT_TRUE(placed.at("result").as_object().at("warm_reused").as_bool());
}

/// A fresh server that has answered every request of `history` with ok.
std::unique_ptr<Server> replay(const std::vector<std::string>& history) {
  auto server = std::make_unique<Server>();
  for (const std::string& line : history) expect_ok(handle(*server, line));
  return server;
}

std::string place_request(std::size_t k) {
  return R"({"op":"place","k":)" + std::to_string(k) + "}";
}

/// Sends place_batch with `ks` after `history` and checks each item against
/// a place at its k on a fresh server with the same history, and the batch's
/// work fields against one place at max(ks). Returns the batch response.
JsonValue::Object expect_batch_matches_places(
    const std::vector<std::string>& history,
    const std::vector<std::size_t>& ks) {
  std::string request = R"({"op":"place_batch","ks":[)";
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (i > 0) request += ',';
    request += std::to_string(ks[i]);
  }
  request += "]}";
  const std::unique_ptr<Server> batch_server = replay(history);
  const JsonValue::Object batch = expect_ok(handle(*batch_server, request));
  const JsonValue::Array& results = batch.at("results").as_array();
  EXPECT_EQ(results.size(), ks.size());
  for (std::size_t i = 0; i < std::min(results.size(), ks.size()); ++i) {
    const JsonValue::Object& item = results[i].as_object();
    EXPECT_EQ(item.size(), 3U) << "items are {k, nodes, customers}";
    EXPECT_EQ(item.at("k").as_number(), static_cast<double>(ks[i]));
    const std::unique_ptr<Server> one_server = replay(history);
    const JsonValue::Object one =
        expect_ok(handle(*one_server, place_request(ks[i])));
    const JsonValue::Object& expected = one.at("result").as_object();
    EXPECT_EQ(to_json(item.at("nodes")), to_json(expected.at("nodes")))
        << "k=" << ks[i];
    EXPECT_EQ(item.at("customers").as_number(),
              expected.at("customers").as_number())
        << "k=" << ks[i];
  }

  // The batch is one place at its largest budget: the same work, reported
  // once, and one place in the session stats.
  const std::size_t max_k = *std::max_element(ks.begin(), ks.end());
  const std::unique_ptr<Server> max_server = replay(history);
  const JsonValue::Object at_max =
      expect_ok(handle(*max_server, place_request(max_k)));
  const JsonValue::Object& run = at_max.at("result").as_object();
  EXPECT_EQ(batch.at("gain_evaluations").as_number(),
            run.at("gain_evaluations").as_number());
  EXPECT_EQ(batch.at("warm_reused").as_bool(), run.at("warm_reused").as_bool());
  EXPECT_EQ(batch.at("warm_fell_back").as_bool(),
            run.at("warm_fell_back").as_bool());
  const JsonValue::Object batch_stats =
      expect_ok(handle(*batch_server, R"({"op":"stats"})"));
  const JsonValue::Object max_stats =
      expect_ok(handle(*max_server, R"({"op":"stats"})"));
  EXPECT_EQ(to_json(batch_stats.at("session")),
            to_json(max_stats.at("session")));
  return batch;
}

TEST(ServeServer, PlaceBatchMatchesSequentialPlaces) {
  const std::vector<std::string> cold = {load_request()};
  expect_batch_matches_places(cold, {1, 2, 3, 4});
  // Unsorted and duplicate budgets, and budgets above the 4 nodes (clamped).
  expect_batch_matches_places(cold, {8, 1, 3, 3, 100});

  // Greedy stops once no node gains anything: budgets past that point get
  // the whole run, fewer nodes than k.
  const JsonValue::Object stopped = expect_batch_matches_places(cold, {4, 2});
  const JsonValue::Array& first = stopped.at("results").as_array();
  EXPECT_LT(first[0].as_object().at("nodes").as_array().size(), 4U);

  // A warm session after a delta.
  const std::vector<std::string> warm = {
      load_request(), place_request(2),
      R"({"op":"delta","ops":[{"kind":"add_flow","origin":1,"destination":2,)"
      R"("vehicles":8,"alpha":0.4},{"kind":"scale_flow","index":0,"factor":2}]})"};
  const JsonValue::Object warm_batch =
      expect_batch_matches_places(warm, {8, 1, 3, 3});
  EXPECT_TRUE(warm_batch.at("warm_reused").as_bool());
}

TEST(ServeServer, StructuredErrors) {
  Server server;
  EXPECT_EQ(expect_error(handle(server, "not json")), "bad_request");
  EXPECT_EQ(expect_error(handle(server, "[1,2]")), "bad_request");
  EXPECT_EQ(expect_error(handle(server, R"({"op":"dance"})")), "unknown_op");
  EXPECT_EQ(expect_error(handle(server, R"({"op":"place","k":2})")),
            "no_session");
  EXPECT_EQ(expect_error(handle(server, R"({"op":"load","city":"atlantis"})")),
            "bad_scenario");
  EXPECT_EQ(expect_error(handle(
                server, R"({"op":"load","network_csv":"garbage","flows_csv":"x"})")),
            "bad_scenario");

  expect_ok(handle(server, load_request()));
  EXPECT_EQ(expect_error(handle(server, R"({"op":"place","k":0})")),
            "bad_request");
  EXPECT_EQ(expect_error(handle(
                server, R"({"op":"delta","ops":[{"kind":"remove_flow","index":9}]})")),
            "bad_request");
  EXPECT_EQ(expect_error(handle(server, R"({"op":"evaluate","nodes":[99]})")),
            "bad_request");
  // An unknown node in a delta is reported, not fatal.
  EXPECT_EQ(
      expect_error(handle(
          server,
          R"({"op":"delta","ops":[{"kind":"add_flow","origin":0,"destination":99}]})")),
      "bad_request");
}

TEST(ServeServer, EchoesRequestIds) {
  Server server;
  const JsonValue ok = handle(server, R"({"op":"stats","id":"req-7"})");
  EXPECT_EQ(ok.as_object().at("id").as_string(), "req-7");
  const JsonValue err = handle(server, R"({"op":"nope","id":42})");
  EXPECT_EQ(err.as_object().at("id").as_number(), 42.0);
}

TEST(ServeServer, ExpiredDeadlineReported) {
  Server server;
  expect_ok(handle(server, load_request()));
  // A microsecond deadline expires before the optimizer's first heap pop.
  EXPECT_EQ(expect_error(handle(
                server, R"({"op":"place","k":2,"deadline_ms":0.000001})")),
            "deadline_exceeded");
}

TEST(ServeServer, RunLoopProcessesUntilShutdown) {
  Server server;
  std::istringstream in(load_request() + "\n" +
                        R"({"op":"place","k":1})" + "\n\n" +
                        R"({"op":"shutdown"})" + "\n" +
                        R"({"op":"stats"})" + "\n");  // after shutdown: unread
  std::ostringstream out;
  EXPECT_EQ(server.run(in, out), 0);
  EXPECT_TRUE(server.shutdown_requested());

  std::istringstream lines(out.str());
  std::string line;
  std::size_t responses = 0;
  while (std::getline(lines, line)) {
    expect_ok(parse_json(line));
    ++responses;
  }
  EXPECT_EQ(responses, 3U);  // load, place, shutdown; stats never handled
}

TEST(ServeServer, TelemetryRecordsRequestMetrics) {
  Server server;
  expect_ok(handle(server, load_request()));
  expect_ok(handle(server, R"({"op":"place","k":2})"));
  const auto& counters = server.telemetry().metrics.counters();
  EXPECT_EQ(counters.at("serve.requests").value(), 2U);
  EXPECT_EQ(counters.at("serve.cache.misses").value(), 1U);
}

// A cache hit does little but hash the inputs, so the key's time and the
// bytes it read must show in the trace and the telemetry (what rap_serve
// --trace-out and --metrics-out write).
TEST(ServeServer, FileLoadTracesTheKeyAndCountsItsBytes) {
  const auto dir = std::filesystem::temp_directory_path() / "rap_server_key";
  std::filesystem::create_directories(dir);
  const std::string network =
      "node,0,0\nnode,1,0\nedge,0,1,1\nedge,1,0,1\n";
  const std::string flows =
      "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n"
      "0,1,10,2,0.5,0|1\n";
  std::ofstream(dir / "net.csv", std::ios::binary) << network;
  std::ofstream(dir / "flows.csv", std::ios::binary) << flows;
  const std::string load = R"({"op":"load","network_path":")" +
                           (dir / "net.csv").string() +
                           R"(","flows_path":")" +
                           (dir / "flows.csv").string() +
                           R"(","utility":"linear","d":4,"shop":0})";

  const obs::FlightRecorder recorder;
  Server server;
  expect_ok(handle(server, load));
  expect_ok(handle(server, load));  // a hit pays the key again
  const std::string trace = obs::to_chrome_trace(recorder);
  EXPECT_NE(trace.find(R"("name":"serve.scenario_key","ph":"B")"),
            std::string::npos);
  EXPECT_NE(trace.find(R"("name":"serve.key_bytes")"), std::string::npos);
  // Both loads hash both files in full, plus the tags and parameters.
  const auto& counters = server.telemetry().metrics.counters();
  const std::uint64_t key_bytes = counters.at("serve.key_bytes").value();
  EXPECT_EQ(key_bytes % 2, 0U);
  EXPECT_GT(key_bytes / 2, network.size() + flows.size());
  EXPECT_LT(key_bytes / 2, network.size() + flows.size() + 200);
  std::filesystem::remove_all(dir);
}

// A NaN alpha must fail the load itself, not every later place/evaluate.
TEST(ServeServer, NanAlphaLoadIsBadScenario) {
  Server server;
  const std::string nan_flows =
      "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\\n"
      "0,3,10,2,nan,0|1|3\\n";
  EXPECT_EQ(expect_error(handle(
                server, std::string(R"({"op":"load","network_csv":")") +
                            kNetworkCsv + R"(","flows_csv":")" + nan_flows +
                            R"(","utility":"linear","d":4,"shop":0})")),
            "bad_scenario");
  EXPECT_EQ(expect_error(handle(server, R"({"op":"place","k":1})")),
            "no_session");
}

TEST(ServeServer, FailedLoadKeepsThePreviousSessionServing) {
  Server server;
  expect_ok(handle(server, load_request()));
  const std::string place = R"({"op":"place","k":2})";
  const JsonValue before = expect_ok(handle(server, place)).at("result");

  // A load that fails to build — unknown city, malformed CSV, bad shop —
  // must not drop or replace the session already loaded.
  EXPECT_EQ(expect_error(handle(server, R"({"op":"load","city":"atlantis"})")),
            "bad_scenario");
  EXPECT_EQ(expect_error(handle(
                server, R"({"op":"load","network_csv":"garbage","flows_csv":"x"})")),
            "bad_scenario");
  EXPECT_EQ(expect_error(handle(
                server, R"({"op":"load","city":"grid","shop":999999})")),
            "bad_scenario");
  // Same placement, and warm: the very session that placed before answers.
  const JsonValue after = expect_ok(handle(server, place)).at("result");
  EXPECT_EQ(to_json(after.as_object().at("nodes")),
            to_json(before.as_object().at("nodes")));
  EXPECT_EQ(after.as_object().at("customers").as_number(),
            before.as_object().at("customers").as_number());
  EXPECT_TRUE(after.as_object().at("warm_reused").as_bool());
  const JsonValue::Object& evaluated =
      expect_ok(handle(server, R"({"op":"evaluate","nodes":[0]})"));
  EXPECT_GE(evaluated.at("customers").as_number(), 0.0);
}

}  // namespace
}  // namespace rap::serve
