// Scenario store tests: restart rehydration with zero rebuilds, bitwise
// identical placements on rehydrated scenarios, corruption detection, and
// the dijkstra-only persistence policy.
#include "src/serve/store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/serve/protocol.h"
#include "src/serve/server.h"

namespace rap::serve {
namespace {

std::string temp_store_dir(const char* tag) {
  const std::string dir = std::filesystem::temp_directory_path() /
                          ("rap_store_" + std::to_string(::getpid()) + "_" +
                           tag);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string load_request(int seed) {
  return R"({"op":"load","city":"grid","seed":)" + std::to_string(seed) +
         R"(,"journeys":40,"utility":"linear","d":2500})";
}

JsonValue::Object expect_ok(Server& server, const std::string& line) {
  const std::string response = server.handle_line(line);
  const JsonValue parsed = parse_json(response);
  const JsonValue::Object& object = parsed.as_object();
  EXPECT_TRUE(object.at("ok").as_bool()) << response;
  return object;
}

double server_stat(Server& server, const char* field) {
  return expect_ok(server, R"({"op":"stats"})")
      .at("server")
      .as_object()
      .at(field)
      .as_number();
}

ServerOptions store_options(const std::string& dir) {
  ServerOptions options;
  options.store_dir = dir;
  return options;
}

TEST(ServeStore, RestartRehydratesEveryScenarioWithZeroRebuilds) {
  const std::string dir = temp_store_dir("restart");
  std::string first_key;
  std::string second_key;
  {
    Server server(store_options(dir));
    first_key = expect_ok(server, load_request(1)).at("key").as_string();
    second_key = expect_ok(server, load_request(2)).at("key").as_string();
    EXPECT_EQ(server_stat(server, "scenario_builds"), 2.0);
  }  // "kill" the server; only the segment files survive

  Server restarted(store_options(dir));
  EXPECT_EQ(restarted.rehydrated_at_start(), 2U);
  // Both loads must come from the rehydrated cache: zero rebuilds.
  const JsonValue::Object first = expect_ok(restarted, load_request(1));
  const JsonValue::Object second = expect_ok(restarted, load_request(2));
  EXPECT_EQ(first.at("key").as_string(), first_key);
  EXPECT_EQ(second.at("key").as_string(), second_key);
  EXPECT_EQ(first.at("source").as_string(), "cache");
  EXPECT_EQ(second.at("source").as_string(), "cache");
  EXPECT_EQ(server_stat(restarted, "scenario_builds"), 0.0);
  std::filesystem::remove_all(dir);
}

TEST(ServeStore, RehydratedPlacementsAreBitwiseIdentical) {
  const std::string dir = temp_store_dir("bitwise");
  std::string fresh_place;
  std::string fresh_batch;
  {
    Server server(store_options(dir));
    (void)expect_ok(server, load_request(3));
    fresh_place = server.handle_line(R"({"op":"place","k":3})");
    fresh_batch = server.handle_line(R"({"op":"place_batch","ks":[1,2,4]})");
  }

  Server restarted(store_options(dir));
  ASSERT_EQ(restarted.rehydrated_at_start(), 1U);
  (void)expect_ok(restarted, load_request(3));
  EXPECT_EQ(restarted.handle_line(R"({"op":"place","k":3})"), fresh_place);
  EXPECT_EQ(restarted.handle_line(R"({"op":"place_batch","ks":[1,2,4]})"),
            fresh_batch);
  std::filesystem::remove_all(dir);
}

TEST(ServeStore, DeltasWorkOnRehydratedScenarios) {
  const std::string dir = temp_store_dir("deltas");
  std::string fresh;
  {
    Server server(store_options(dir));
    (void)expect_ok(server, load_request(4));
    (void)expect_ok(
        server,
        R"({"op":"delta","ops":[{"kind":"add_flow","origin":0,"destination":5,"vehicles":20}]})");
    fresh = server.handle_line(R"({"op":"place","k":2})");
  }

  Server restarted(store_options(dir));
  ASSERT_EQ(restarted.rehydrated_at_start(), 1U);
  (void)expect_ok(restarted, load_request(4));
  // The rehydrated DetourCalculator prices flows the segment never saw —
  // the delta-added flow gets the same detours as the live one gave it.
  (void)expect_ok(
      restarted,
      R"({"op":"delta","ops":[{"kind":"add_flow","origin":0,"destination":5,"vehicles":20}]})");
  EXPECT_EQ(restarted.handle_line(R"({"op":"place","k":2})"), fresh);
  std::filesystem::remove_all(dir);
}

TEST(ServeStore, CorruptSegmentIsSkippedAndRebuilt) {
  const std::string dir = temp_store_dir("corrupt");
  {
    Server server(store_options(dir));
    (void)expect_ok(server, load_request(5));
  }
  // Flip one payload byte in the single segment.
  std::filesystem::path segment;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    segment = entry.path();
  }
  ASSERT_FALSE(segment.empty());
  {
    std::fstream file(segment,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(200);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);  // guaranteed different
    file.seekp(200);
    file.write(&byte, 1);
  }

  Server restarted(store_options(dir));
  EXPECT_EQ(restarted.rehydrated_at_start(), 0U);  // detected, not crashed
  ASSERT_NE(restarted.store(), nullptr);
  EXPECT_EQ(restarted.store()->stats().corrupt, 1U);
  // The load falls back to a rebuild and repairs nothing silently.
  const JsonValue::Object loaded = expect_ok(restarted, load_request(5));
  EXPECT_EQ(loaded.at("source").as_string(), "built");
  std::filesystem::remove_all(dir);
}

TEST(ServeStore, VersionOneSegmentIsCorruptAndRebuilt) {
  // Version 1 carried a detour-engine name string that version 2 dropped;
  // version 3 carried the shop's d'/d'' arrays and a byte estimate that
  // version 4 derives instead. A segment stamped with either older version
  // must be counted corrupt and rebuilt, never misread.
  for (const std::uint64_t old_version :
       {std::uint64_t{1}, std::uint64_t{3}}) {
    SCOPED_TRACE("version " + std::to_string(old_version));
    const std::string dir = temp_store_dir("version_old");
    {
      Server server(store_options(dir));
      (void)expect_ok(server, load_request(7));
    }
    std::filesystem::path segment;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      segment = entry.path();
    }
    ASSERT_FALSE(segment.empty());
    {
      // The u64 format version follows the 8-byte magic.
      std::fstream file(segment,
                        std::ios::in | std::ios::out | std::ios::binary);
      std::uint64_t version = 0;
      file.seekg(8);
      file.read(reinterpret_cast<char*>(&version), sizeof version);
      ASSERT_EQ(version, kStoreFormatVersion);
      version = old_version;
      file.seekp(8);
      file.write(reinterpret_cast<const char*>(&version), sizeof version);
    }

    Server restarted(store_options(dir));
    EXPECT_EQ(restarted.rehydrated_at_start(), 0U);
    ASSERT_NE(restarted.store(), nullptr);
    EXPECT_EQ(restarted.store()->stats().corrupt, 1U);
    const JsonValue::Object loaded = expect_ok(restarted, load_request(7));
    EXPECT_EQ(loaded.at("source").as_string(), "built");
    EXPECT_EQ(loaded.at("engine").as_string(), "dijkstra");  // rap.serve.v1
    // The rebuild replaced the rejected segment, so the next restart
    // rehydrates it.
    EXPECT_EQ(restarted.store()->stats().persisted, 1U);

    Server again(store_options(dir));
    EXPECT_EQ(again.rehydrated_at_start(), 1U);
    EXPECT_EQ(again.store()->stats().corrupt, 0U);
    std::filesystem::remove_all(dir);
  }
}

TEST(ServeStore, TruncatedSegmentIsCorrupt) {
  const std::string dir = temp_store_dir("truncated");
  {
    Server server(store_options(dir));
    (void)expect_ok(server, load_request(6));
  }
  std::filesystem::path segment;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    segment = entry.path();
  }
  ASSERT_FALSE(segment.empty());
  std::filesystem::resize_file(segment,
                               std::filesystem::file_size(segment) / 2);

  Server restarted(store_options(dir));
  EXPECT_EQ(restarted.rehydrated_at_start(), 0U);
  EXPECT_EQ(restarted.store()->stats().corrupt, 1U);
  EXPECT_EQ(restarted.store()->segment_count(), 0U);  // deleted for the rebuild
  std::filesystem::remove_all(dir);
}

TEST(ServeStore, VersionFourSegmentUnderItsOldKeyIsDeletedAndRebuilt) {
  // Version 4 sealed its checksum with FNV-1a and was filed under an FNV-1a
  // key, which no spec hashes to any more. Such a segment must be counted
  // corrupt once and deleted at startup (not rehydrated into a cache slot
  // nothing can hit), and the load then builds and persists afresh.
  const std::string dir = temp_store_dir("version_four");
  {
    Server server(store_options(dir));
    (void)expect_ok(server, load_request(7));
  }
  std::filesystem::path segment;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    segment = entry.path();
  }
  ASSERT_FALSE(segment.empty());
  const std::uint64_t old_key = 0x0123456789abcdefULL;
  {
    // The u64 format version and the u64 key follow the 8-byte magic.
    std::fstream file(segment, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint64_t fields[2] = {4, old_key};
    file.seekp(8);
    file.write(reinterpret_cast<const char*>(fields), sizeof fields);
  }
  const std::filesystem::path old_segment =
      segment.parent_path() / "0123456789abcdef.rseg";
  std::filesystem::rename(segment, old_segment);

  Server restarted(store_options(dir));
  EXPECT_EQ(restarted.rehydrated_at_start(), 0U);
  ASSERT_NE(restarted.store(), nullptr);
  EXPECT_EQ(restarted.store()->stats().corrupt, 1U);
  EXPECT_FALSE(std::filesystem::exists(old_segment));
  EXPECT_EQ(restarted.store()->segment_count(), 0U);
  const JsonValue::Object loaded = expect_ok(restarted, load_request(7));
  EXPECT_EQ(loaded.at("source").as_string(), "built");
  EXPECT_EQ(restarted.store()->stats().persisted, 1U);
  EXPECT_TRUE(std::filesystem::exists(segment));

  Server again(store_options(dir));
  EXPECT_EQ(again.rehydrated_at_start(), 1U);
  EXPECT_EQ(again.store()->stats().corrupt, 0U);
  std::filesystem::remove_all(dir);
}

TEST(ServeStore, FlippedHeaderFieldIsCorrupt) {
  // The scalar header fields (the utility range at offset 64, shop and
  // reserved at 72 and 76, the string lengths at 80 and 88) sit outside the
  // payload. A flipped bit there must fail the checksum like one in the
  // payload; it must not rehydrate a scenario with another range or shop.
  for (const std::streamoff offset : {64, 70, 72, 76, 88}) {
    const std::string dir = temp_store_dir("header");
    {
      Server server(store_options(dir));
      (void)expect_ok(server, load_request(8));
    }
    std::filesystem::path segment;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      segment = entry.path();
    }
    ASSERT_FALSE(segment.empty());
    {
      std::fstream file(segment,
                        std::ios::in | std::ios::out | std::ios::binary);
      file.seekg(offset);
      char byte = 0;
      file.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x01);
      file.seekp(offset);
      file.write(&byte, 1);
    }

    Server restarted(store_options(dir));
    EXPECT_EQ(restarted.rehydrated_at_start(), 0U) << "offset " << offset;
    EXPECT_EQ(restarted.store()->stats().corrupt, 1U) << "offset " << offset;
    EXPECT_EQ(restarted.store()->segment_count(), 0U) << "offset " << offset;
    std::filesystem::remove_all(dir);
  }
}

TEST(ServeStore, DirectPutLoadRoundTrip) {
  const std::string dir = temp_store_dir("direct");
  ScenarioSpec spec;
  spec.city = "grid";
  spec.seed = 9;
  spec.journeys = 30;
  const std::uint64_t key = scenario_key(spec);
  const std::shared_ptr<const ServeScenario> built = build_scenario(spec, key);

  ScenarioStore store(dir);
  EXPECT_TRUE(store.put(*built));
  EXPECT_FALSE(store.put(*built));  // idempotent: key already on disk
  EXPECT_EQ(store.keys(), std::vector<std::uint64_t>{key});

  const std::shared_ptr<const ServeScenario> loaded = store.load(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->key, built->key);
  EXPECT_EQ(loaded->summary, built->summary);
  EXPECT_EQ(loaded->detours->to_shop(), built->detours->to_shop());
  EXPECT_EQ(loaded->detours->from_shop(), built->detours->from_shop());
  EXPECT_EQ(loaded->net.num_nodes(), built->net.num_nodes());
  EXPECT_EQ(loaded->net.num_edges(), built->net.num_edges());
  EXPECT_EQ(loaded->flows.size(), built->flows.size());
  EXPECT_EQ(loaded->shop, built->shop);
  EXPECT_EQ(loaded->bytes, built->bytes);

  // A rehydrated scenario re-persists losslessly into a second store.
  const std::string dir2 = temp_store_dir("direct2");
  ScenarioStore second(dir2);
  EXPECT_TRUE(second.put(*loaded));
  const std::shared_ptr<const ServeScenario> reloaded = second.load(key);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->summary, built->summary);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

TEST(ServeStore, MissingKeyLoadsNothing) {
  const std::string dir = temp_store_dir("missing");
  ScenarioStore store(dir);
  EXPECT_EQ(store.load(0xdeadbeefULL), nullptr);
  EXPECT_EQ(store.stats().corrupt, 0U);  // absent is not corrupt
  EXPECT_TRUE(store.keys().empty());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rap::serve
