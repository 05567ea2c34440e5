// The stats verb's determinism contract (src/serve/server.h): under a
// VirtualClockGuard the whole introspection snapshot — request and error
// counts, uptime, cache rates, warm-start counts, per-verb latency
// percentiles — is a pure function of the request sequence. Repeated runs
// must reproduce the same bytes. src/serve reaches no parallel call site
// (every serve placement is one serial CELF run), so the comparison of one
// with four ambient threads (the RAP_THREADS=4 CI configuration) cannot
// fail for a threading reason today; it guards against a parallel site
// coming back into the serve path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/events.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/util/thread_pool.h"

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

/// The request sequence every test replays: loads (one cached), single and
/// batch placements, an evaluate, one guaranteed error, then stats.
std::vector<std::string> scripted_sequence() {
  return {
      load_request(),
      R"({"op":"place","k":2})",
      R"({"op":"place_batch","ks":[1,2]})",
      load_request(),  // cache hit; replaces the session, resetting its stats
      R"({"op":"place","k":1})",  // cold: no warm state yet
      R"({"op":"place","k":2})",  // warm: seeded by the previous place
      R"({"op":"evaluate","nodes":[0]})",
      R"({"op":"nonsense"})",  // unknown_op -> counted as an error
      R"({"op":"stats"})",
  };
}

/// Runs the scripted sequence on a fresh server under a fresh virtual
/// clock with the given ambient thread count; returns the raw response to
/// the final stats request.
std::string stats_transcript(std::size_t threads) {
  const util::ParallelConfig previous = util::parallel_config();
  util::set_parallel_config({threads});
  std::string last;
  {
    const obs::VirtualClockGuard clock;
    Server server;
    for (const std::string& line : scripted_sequence()) {
      last = server.handle_line(line);
    }
  }
  util::set_parallel_config(previous);
  return last;
}

// No serve path runs in parallel; this fails if one starts to and its
// output depends on the thread count.
TEST(ServerStats, ByteIdenticalSerialVsFourThreads) {
  const std::string serial = stats_transcript(1);
  const std::string parallel = stats_transcript(4);
  EXPECT_EQ(serial, parallel);
}

TEST(ServerStats, ByteIdenticalAcrossRepeatedRuns) {
  EXPECT_EQ(stats_transcript(1), stats_transcript(1));
  EXPECT_EQ(stats_transcript(4), stats_transcript(4));
}

TEST(ServerStats, GoldenSnapshotFields) {
  const JsonValue response = parse_json(stats_transcript(1));
  const JsonValue::Object& object = response.as_object();
  ASSERT_TRUE(object.at("ok").as_bool());

  // Eight requests completed before stats; one of them failed.
  const JsonValue::Object& server = object.at("server").as_object();
  EXPECT_EQ(server.at("requests").as_number(), 9.0);  // includes stats itself
  EXPECT_EQ(server.at("errors").as_number(), 1.0);
  // Uptime on the virtual clock: exactly one 1 ms tick per request
  // completed before the stats snapshot was taken.
  EXPECT_EQ(server.at("uptime_ms").as_number(), 8.0);

  const JsonValue::Object& cache = object.at("cache").as_object();
  EXPECT_EQ(cache.at("hits").as_number(), 1.0);
  EXPECT_EQ(cache.at("misses").as_number(), 1.0);
  EXPECT_EQ(cache.at("hit_rate").as_number(), 0.5);
  EXPECT_EQ(cache.at("evictions").as_number(), 0.0);

  // The second load replaced the session, so only the two places after it
  // count; the second of those was seeded by the first (a warm attempt).
  const JsonValue::Object& session = object.at("session").as_object();
  ASSERT_TRUE(session.at("present").as_bool());
  EXPECT_EQ(session.at("places").as_number(), 2.0);
  EXPECT_EQ(session.at("warm_attempts").as_number(), 1.0);

  // Per-verb latencies: every request took exactly one virtual tick.
  const JsonValue::Object& verbs = object.at("verbs").as_object();
  const JsonValue::Object& load = verbs.at("load").as_object();
  EXPECT_EQ(load.at("count").as_number(), 2.0);
  EXPECT_EQ(load.at("mean_ms").as_number(), 1.0);
  EXPECT_EQ(load.at("p50_ms").as_number(), 1.0);
  EXPECT_EQ(load.at("p95_ms").as_number(), 1.0);
  EXPECT_EQ(load.at("p99_ms").as_number(), 1.0);
  EXPECT_EQ(verbs.at("place").as_object().at("count").as_number(), 3.0);
  EXPECT_EQ(verbs.at("place_batch").as_object().at("count").as_number(), 1.0);
  EXPECT_EQ(verbs.at("evaluate").as_object().at("count").as_number(), 1.0);
  // The unknown op lands in the "other" bucket, still timed.
  EXPECT_EQ(verbs.at("other").as_object().at("count").as_number(), 1.0);

  EXPECT_TRUE(object.at("clock").as_object().at("virtual").as_bool());
  EXPECT_FALSE(
      object.at("recorder").as_object().at("installed").as_bool());
}

TEST(ServerStats, RecorderSectionReflectsInstalledRecorder) {
  const obs::VirtualClockGuard clock;
  const obs::FlightRecorder recorder(obs::RecorderOptions{128});
  Server server;
  (void)server.handle_line(load_request());
  const JsonValue response =
      parse_json(server.handle_line(R"({"op":"stats"})"));
  const JsonValue::Object& section =
      response.as_object().at("recorder").as_object();
  ASSERT_TRUE(section.at("installed").as_bool());
  EXPECT_EQ(section.at("ring_capacity").as_number(), 128.0);
  EXPECT_GE(section.at("threads").as_number(), 1.0);
  EXPECT_GT(section.at("events").as_number(), 0.0);
  EXPECT_EQ(section.at("dropped").as_number(), 0.0);
}

TEST(ServerStats, FreshServerReportsZeroes) {
  const obs::VirtualClockGuard clock;
  Server server;
  const JsonValue response =
      parse_json(server.handle_line(R"({"op":"stats"})"));
  const JsonValue::Object& object = response.as_object();
  const JsonValue::Object& cache = object.at("cache").as_object();
  EXPECT_EQ(cache.at("hits").as_number(), 0.0);
  EXPECT_EQ(cache.at("hit_rate").as_number(), 0.0);  // no lookups yet
  EXPECT_FALSE(object.at("session").as_object().at("present").as_bool());
  const JsonValue::Object& server_json = object.at("server").as_object();
  EXPECT_EQ(server_json.at("requests").as_number(), 1.0);
  EXPECT_EQ(server_json.at("errors").as_number(), 0.0);
  EXPECT_EQ(server_json.at("uptime_ms").as_number(), 0.0);
  EXPECT_TRUE(object.at("verbs").as_object().empty());
}

}  // namespace
}  // namespace rap::serve
