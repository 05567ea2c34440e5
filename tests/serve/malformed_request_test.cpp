// Regression suite for the malformed-request bugs: out-of-range
// double->integer casts (UB before this suite existed), deadline overflow
// wrapping into the past, and unbounded JSON recursion. Every case must
// come back as a structured bad_request (or a success where the old code
// wrapped), never UB or a crash — the sanitize preset (ASan+UBSan) is the
// real judge here.
#include <gtest/gtest.h>

#include <string>

#include "src/serve/protocol.h"
#include "src/serve/server.h"

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

std::string load_request() {
  return std::string(R"({"op":"load","network_csv":")") + kNetworkCsv +
         R"(","flows_csv":")" + kFlowsCsv +
         R"(","utility":"linear","d":4,"shop":0})";
}

JsonValue handle(Server& server, const std::string& line) {
  return parse_json(server.handle_line(line));
}

std::string error_code(const JsonValue& response) {
  const JsonValue::Object& object = response.as_object();
  EXPECT_FALSE(object.at("ok").as_bool()) << to_json(response);
  return object.at("error").as_object().at("code").as_string();
}

bool is_ok(const JsonValue& response) {
  return response.as_object().at("ok").as_bool();
}

class MalformedRequest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(is_ok(handle(server_, load_request())));
  }
  Server server_;
};

// --- out-of-range / non-integer numerics (previously UB casts) ----------

TEST_F(MalformedRequest, HugeBudgetIsBadRequestNotUb) {
  EXPECT_EQ(error_code(handle(server_, R"({"op":"place","k":1e300})")),
            "bad_request");
  EXPECT_EQ(error_code(handle(server_, R"({"op":"place","k":1e13})")),
            "bad_request");
}

TEST_F(MalformedRequest, NegativeAndFractionalBudgetsAreBadRequests) {
  EXPECT_EQ(error_code(handle(server_, R"({"op":"place","k":-3})")),
            "bad_request");
  EXPECT_EQ(error_code(handle(server_, R"({"op":"place","k":0})")),
            "bad_request");
  EXPECT_EQ(error_code(handle(server_, R"({"op":"place","k":2.5})")),
            "bad_request");
}

TEST_F(MalformedRequest, BatchBudgetsGetTheSameChecks) {
  EXPECT_EQ(
      error_code(handle(server_, R"({"op":"place_batch","ks":[1,1e300]})")),
      "bad_request");
  EXPECT_EQ(error_code(handle(server_, R"({"op":"place_batch","ks":[2,-1]})")),
            "bad_request");
  EXPECT_EQ(error_code(handle(server_, R"({"op":"place_batch","ks":[1.5]})")),
            "bad_request");
}

TEST_F(MalformedRequest, OutOfRangeNodeIdsAreBadRequests) {
  // 4294967295 is kInvalidNode, one past the largest representable id.
  EXPECT_EQ(
      error_code(handle(server_, R"({"op":"evaluate","nodes":[4294967295]})")),
      "bad_request");
  EXPECT_EQ(error_code(handle(server_, R"({"op":"evaluate","nodes":[-1]})")),
            "bad_request");
  EXPECT_EQ(
      error_code(handle(server_, R"({"op":"evaluate","nodes":[1e300]})")),
      "bad_request");
  EXPECT_EQ(error_code(handle(server_, R"({"op":"evaluate","nodes":[0.5]})")),
            "bad_request");
}

TEST_F(MalformedRequest, DeltaIndexRangeChecked) {
  EXPECT_EQ(error_code(handle(
                server_,
                R"({"op":"delta","ops":[{"kind":"remove_flow","index":-1}]})")),
            "bad_request");
  EXPECT_EQ(
      error_code(handle(
          server_,
          R"({"op":"delta","ops":[{"kind":"scale_flow","index":1e300,"factor":2}]})")),
      "bad_request");
}

TEST_F(MalformedRequest, DeltaNodeIdsRangeChecked) {
  EXPECT_EQ(
      error_code(handle(
          server_,
          R"({"op":"delta","ops":[{"kind":"add_flow","origin":-2,"destination":3}]})")),
      "bad_request");
  EXPECT_EQ(
      error_code(handle(
          server_,
          R"({"op":"delta","ops":[{"kind":"add_flow","origin":0,"destination":1e300}]})")),
      "bad_request");
}

TEST(MalformedRequestLoad, SeedAndJourneysRangeChecked) {
  Server server;
  EXPECT_EQ(error_code(handle(
                server, R"({"op":"load","city":"grid","seed":-2})")),
            "bad_request");
  EXPECT_EQ(error_code(handle(
                server, R"({"op":"load","city":"grid","seed":1e300})")),
            "bad_request");
  EXPECT_EQ(error_code(handle(
                server, R"({"op":"load","city":"grid","journeys":-1})")),
            "bad_request");
  EXPECT_EQ(error_code(handle(
                server, R"({"op":"load","city":"grid","journeys":2.5})")),
            "bad_request");
  EXPECT_EQ(error_code(handle(
                server, R"({"op":"load","city":"grid","journeys":1e10})")),
            "bad_request");
}

TEST(MalformedRequestLoad, NonFiniteNodeCoordinateIsBadScenario) {
  // A NaN or infinite position used to load and then leak into GeoJSON as
  // a bare `nan`; the network parser now rejects the row.
  for (const char* node : {"node,nan,0", "node,0,inf", "node,-inf,0"}) {
    Server server;
    const JsonValue response = handle(
        server, std::string(R"({"op":"load","network_csv":"node,0,0\n)") +
                    node + R"(\nnode,2,0\nedge,0,1,1\nedge,1,0,1\n)" +
                    R"(edge,1,2,1\nedge,2,1,1\n","flows_csv":")" +
                    "origin,destination,daily_vehicles,"
                    R"(passengers_per_vehicle,alpha,path\n0,2,5,1,1,0|1|2\n)" +
                    R"(","utility":"linear","d":4,"shop":0})");
    EXPECT_EQ(error_code(response), "bad_scenario") << node;
    EXPECT_EQ(response.as_object().at("error").as_object().at("message")
                  .as_string(),
              "<network_csv>:2: RoadNetwork::add_node: coordinates must be "
              "finite")
        << node;
  }
}

// --- deadline overflow ---------------------------------------------------

TEST_F(MalformedRequest, HugeDeadlineMeansNoDeadlineNotThePast) {
  // 1e18 ms in nanoseconds overflows int64; the old cast wrapped the
  // deadline into the past and every such request died deadline_exceeded.
  const JsonValue response =
      handle(server_, R"({"op":"place","k":2,"deadline_ms":1e18})");
  EXPECT_TRUE(is_ok(response)) << to_json(response);
}

TEST_F(MalformedRequest, NegativeDeadlineMeansNoDeadline) {
  const JsonValue response =
      handle(server_, R"({"op":"place","k":2,"deadline_ms":-5})");
  EXPECT_TRUE(is_ok(response)) << to_json(response);
}

TEST_F(MalformedRequest, TinyDeadlineStillExceeds) {
  // The clamp must not swallow real (tiny) deadlines.
  EXPECT_EQ(error_code(handle(
                server_, R"({"op":"place","k":3,"deadline_ms":0.000001})")),
            "deadline_exceeded");
}

// --- parser recursion ----------------------------------------------------

std::string nested_arrays(int depth) {
  std::string line = R"({"op":"stats","x":)";
  line.append(static_cast<std::size_t>(depth), '[');
  line.append(static_cast<std::size_t>(depth), ']');
  line.push_back('}');
  return line;
}

std::string nested_objects(int depth) {
  std::string line = R"({"op":"stats","x":)";
  for (int i = 0; i < depth; ++i) line += R"({"a":)";
  line += "1";
  line.append(static_cast<std::size_t>(depth), '}');
  line.push_back('}');
  return line;
}

TEST_F(MalformedRequest, DeeplyNestedArraysAreBadRequestsNotStackOverflow) {
  EXPECT_EQ(error_code(handle(server_, nested_arrays(100'000))),
            "bad_request");
}

TEST_F(MalformedRequest, DeeplyNestedObjectsAreBadRequestsNotStackOverflow) {
  EXPECT_EQ(error_code(handle(server_, nested_objects(100'000))),
            "bad_request");
}

TEST_F(MalformedRequest, NestingJustUnderTheCapStillParses) {
  // The request object itself consumes one level.
  const JsonValue response = handle(server_, nested_arrays(kMaxJsonDepth - 1));
  EXPECT_TRUE(is_ok(response)) << to_json(response);
}

TEST(MalformedJson, DepthCapAppliesToBareParses) {
  std::string deep;
  deep.append(100'000, '[');
  deep.append(100'000, ']');
  EXPECT_THROW((void)parse_json(deep), std::invalid_argument);
}

}  // namespace
}  // namespace rap::serve
