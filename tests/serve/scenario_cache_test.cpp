#include "src/serve/scenario_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <stdexcept>
#include <vector>

#include "src/core/evaluator.h"

namespace rap::serve {
namespace {

// A 2x2 unit grid with two-way streets.
constexpr const char* kNetworkCsv =
    "node,0,0\n"
    "node,1,0\n"
    "node,0,1\n"
    "node,1,1\n"
    "edge,0,1,1\n"
    "edge,1,0,1\n"
    "edge,0,2,1\n"
    "edge,2,0,1\n"
    "edge,1,3,1\n"
    "edge,3,1,1\n"
    "edge,2,3,1\n"
    "edge,3,2,1\n";

constexpr const char* kFlowsCsv =
    "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n"
    "0,3,10,2,0.5,0|1|3\n"
    "2,1,5,1,0.25,2|3|1\n";

ScenarioSpec inline_spec() {
  ScenarioSpec spec;
  spec.network_csv = kNetworkCsv;
  spec.flows_csv = kFlowsCsv;
  spec.utility = "linear";
  spec.range = 4.0;
  spec.shop = 0;
  return spec;
}

/// Flow rows over the 2x2 grid, enough to span several 64 KiB read chunks.
std::string many_flows_csv() {
  std::string text =
      "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n";
  for (int i = 0; text.size() < 200'000; ++i) {
    text += i % 2 == 0 ? "0,3," : "2,1,";
    text += std::to_string(1 + i % 17);
    text += i % 2 == 0 ? ",2,0.5,0|1|3\n" : ",1,0.25,2|3|1\n";
  }
  return text;
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

/// inline_spec(), but reading kNetworkCsv and many_flows_csv() from files
/// written under `dir`.
ScenarioSpec file_spec(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  write_text(dir / "net.csv", kNetworkCsv);
  write_text(dir / "flows.csv", many_flows_csv());
  ScenarioSpec spec = inline_spec();
  spec.network_csv.clear();
  spec.flows_csv.clear();
  spec.network_path = (dir / "net.csv").string();
  spec.flows_path = (dir / "flows.csv").string();
  return spec;
}

/// Placeholder entry for cache-mechanics tests (no model built).
std::shared_ptr<const ServeScenario> dummy_scenario(std::uint64_t key,
                                                    std::size_t bytes) {
  auto scenario = std::make_shared<ServeScenario>();
  scenario->key = key;
  scenario->bytes = bytes;
  return scenario;
}

TEST(ScenarioKey, DeterministicAndContentSensitive) {
  const std::uint64_t base = scenario_key(inline_spec());
  EXPECT_EQ(scenario_key(inline_spec()), base);

  ScenarioSpec other = inline_spec();
  other.range = 5.0;
  EXPECT_NE(scenario_key(other), base);

  other = inline_spec();
  other.utility = "sqrt";
  EXPECT_NE(scenario_key(other), base);

  other = inline_spec();
  other.shop = 1;
  EXPECT_NE(scenario_key(other), base);

  // Content-addressed: editing the CSV text is a different scenario.
  other = inline_spec();
  other.flows_csv =
      "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n"
      "0,3,11,2,0.5,0|1|3\n";
  EXPECT_NE(scenario_key(other), base);
}

TEST(ScenarioKey, FileSpecKeyIsStable) {
  // Recorded with the v2 keys (ContentHash). Keys name the store's
  // segments, so neither the file chunking nor a refactor may move them.
  const auto dir =
      std::filesystem::temp_directory_path() / "rap_scenario_key_golden";
  const ScenarioSpec spec = file_spec(dir);
  EXPECT_GT(std::filesystem::file_size(spec.flows_path), 3u * 64 * 1024);
  EXPECT_EQ(scenario_key(spec), 0x0633311f12ee281fULL);
  std::filesystem::remove_all(dir);
}

std::uint64_t content_hash64(std::string_view bytes) {
  return ContentHash().update(bytes).digest();
}

/// `size` bytes of a fixed pseudo-random pattern (zero bytes included).
std::string pattern_bytes(std::size_t size) {
  std::string bytes(size, '\0');
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  for (char& byte : bytes) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    byte = static_cast<char>(state >> 56);
  }
  return bytes;
}

TEST(ContentHash, PinnedValues) {
  EXPECT_EQ(content_hash64(""), 0x6fb12417e5c69512ULL);
  EXPECT_EQ(content_hash64("rap.serve.scenario.v2"), 0x5dcb93c0e658a8d6ULL);
  EXPECT_EQ(content_hash64(pattern_bytes(1000)), 0x85c8de2f88a56dc1ULL);
}

TEST(ContentHash, FileEqualsInlineBytesHoweverSplit) {
  const auto dir = std::filesystem::temp_directory_path() / "rap_content_hash";
  std::filesystem::create_directories(dir);
  const auto path = dir / "bytes.bin";
  for (const std::size_t size :
       {0, 1, 7, 8, 31, 32, 33, 65'535, 65'536, 65'537}) {
    SCOPED_TRACE("size " + std::to_string(size));
    const std::string bytes = pattern_bytes(size);
    write_text(path, bytes);
    const std::uint64_t whole = content_hash64(bytes);
    EXPECT_EQ(ContentHash().update_file(path.string()).digest(), whole);
    for (const std::size_t piece : {1, 3, 8, 13, 32, 33}) {
      ContentHash pieces;
      for (std::size_t at = 0; at < size; at += piece) {
        pieces.update(std::string_view(bytes).substr(at, piece));
      }
      EXPECT_EQ(pieces.length(), size);
      EXPECT_EQ(pieces.digest(), whole) << "pieces of " << piece;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ContentHash, EveryByteOfShortInputsCounts) {
  for (std::size_t size = 1; size <= 70; ++size) {
    const std::string bytes = pattern_bytes(size);
    const std::uint64_t base = content_hash64(bytes);
    for (std::size_t at = 0; at < size; ++at) {
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
      EXPECT_NE(content_hash64(flipped), base) << size << " bytes, byte " << at;
    }
    EXPECT_NE(content_hash64(bytes + '\0'), base) << size << " bytes + NUL";
  }
}

TEST(ScenarioKey, EveryByteAroundTheChunkBoundaryAndInTheTailCounts) {
  const auto dir = std::filesystem::temp_directory_path() / "rap_key_flips";
  ScenarioSpec spec = file_spec(dir);
  constexpr std::size_t kChunk = 64 * 1024;
  const std::string flows = pattern_bytes(kChunk + 100);
  write_text(spec.flows_path, flows);
  const std::uint64_t base = scenario_key(spec);
  std::vector<std::size_t> offsets;
  for (std::size_t at = kChunk - 40; at < kChunk + 40; ++at) {
    offsets.push_back(at);
  }
  // The last 40 bytes hold the final sub-stripe tail and its sub-word end.
  for (std::size_t at = flows.size() - 40; at < flows.size(); ++at) {
    offsets.push_back(at);
  }
  for (const std::size_t at : offsets) {
    std::string flipped = flows;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x20);
    write_text(spec.flows_path, flipped);
    EXPECT_NE(scenario_key(spec), base) << "byte " << at;
  }
  write_text(spec.flows_path, flows + '\0');
  EXPECT_NE(scenario_key(spec), base) << "appended NUL";
  // A 5-byte flows file: flips in the last bytes of the key's input.
  write_text(spec.flows_path, "abcde");
  const std::uint64_t small = scenario_key(spec);
  for (std::size_t at = 0; at < 5; ++at) {
    std::string flipped = "abcde";
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    write_text(spec.flows_path, flipped);
    EXPECT_NE(scenario_key(spec), small) << "flows byte " << at;
  }
  std::filesystem::remove_all(dir);
}

TEST(ScenarioKey, GeneratedCitiesKeyOnParameters) {
  ScenarioSpec spec;
  spec.city = "grid";
  spec.seed = 1;
  const std::uint64_t base = scenario_key(spec);
  EXPECT_EQ(scenario_key(spec), base);
  spec.seed = 2;
  EXPECT_NE(scenario_key(spec), base);
  spec.seed = 1;
  spec.journeys = 50;
  EXPECT_NE(scenario_key(spec), base);
}

TEST(ScenarioSpecValidation, RejectsBadSpecs) {
  ScenarioSpec none;  // no input source at all
  EXPECT_THROW(validate_spec(none), std::invalid_argument);

  ScenarioSpec both = inline_spec();
  both.city = "grid";  // two sources
  EXPECT_THROW(validate_spec(both), std::invalid_argument);

  ScenarioSpec bad_city;
  bad_city.city = "atlantis";
  EXPECT_THROW(validate_spec(bad_city), std::invalid_argument);

  ScenarioSpec bad_utility = inline_spec();
  bad_utility.utility = "cubic";
  EXPECT_THROW(validate_spec(bad_utility), std::invalid_argument);

  ScenarioSpec no_flows;
  no_flows.network_csv = kNetworkCsv;
  EXPECT_THROW(validate_spec(no_flows), std::invalid_argument);

  ScenarioSpec bad_range = inline_spec();
  bad_range.range = 0.0;
  EXPECT_THROW(validate_spec(bad_range), std::invalid_argument);
}

TEST(BuildScenario, BuildsInlineCsvScenario) {
  const ScenarioSpec spec = inline_spec();
  const auto scenario = build_scenario(spec, scenario_key(spec));
  EXPECT_EQ(scenario->net.num_nodes(), 4U);
  EXPECT_EQ(scenario->flows.size(), 2U);
  EXPECT_EQ(scenario->shop, 0U);
  EXPECT_GT(scenario->bytes, 0U);
  ASSERT_NE(scenario->problem, nullptr);
  // The model is usable: the shop node itself attracts the 0->3 flow.
  const double value =
      core::evaluate_placement(*scenario->problem, std::vector<graph::NodeId>{0});
  EXPECT_GT(value, 0.0);
}

TEST(BuildScenario, FileSpecMatchesInlineSpec) {
  // The streamed file parse builds the same scenario as the in-memory text.
  const auto dir =
      std::filesystem::temp_directory_path() / "rap_build_scenario_files";
  const ScenarioSpec files = file_spec(dir);
  ScenarioSpec text = inline_spec();
  text.flows_csv = many_flows_csv();
  const auto from_files = build_scenario(files, scenario_key(files));
  const auto from_text = build_scenario(text, scenario_key(text));
  std::filesystem::remove_all(dir);
  ASSERT_EQ(from_files->flows.size(), from_text->flows.size());
  EXPECT_GT(from_files->flows.size(), 5'000u);
  for (std::size_t f = 0; f < from_files->flows.size(); ++f) {
    EXPECT_EQ(from_files->flows[f].path, from_text->flows[f].path);
    EXPECT_EQ(from_files->flows[f].daily_vehicles,
              from_text->flows[f].daily_vehicles);
  }
  const core::Placement nodes{1, 3};
  EXPECT_EQ(core::evaluate_placement(*from_files->problem, nodes),
            core::evaluate_placement(*from_text->problem, nodes));
}

TEST(BuildScenario, SharedDetoursMatchOwnedDetours) {
  // A problem built on the scenario's shared detour engine prices
  // placements identically to one that ran its own Dijkstras.
  const ScenarioSpec spec = inline_spec();
  const auto scenario = build_scenario(spec, scenario_key(spec));
  const core::PlacementProblem owned(scenario->net, scenario->flows,
                                     scenario->shop, *scenario->utility);
  for (graph::NodeId v = 0; v < scenario->net.num_nodes(); ++v) {
    const std::vector<graph::NodeId> placement{v};
    EXPECT_EQ(core::evaluate_placement(*scenario->problem, placement),
              core::evaluate_placement(owned, placement))
        << "node " << v;
  }
}

TEST(BuildScenario, GeneratedGridMatchesCliPreset) {
  ScenarioSpec spec;
  spec.city = "grid";
  spec.seed = 1;
  spec.journeys = 20;
  const auto scenario = build_scenario(spec, scenario_key(spec));
  EXPECT_EQ(scenario->net.num_nodes(), 225U);  // the 15x15 rap_cli preset
  EXPECT_GT(scenario->flows.size(), 0U);
}

TEST(ScenarioCacheTest, HitsMissesAndRecency) {
  ScenarioCache cache(1000);
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.stats().misses, 1U);

  cache.insert(dummy_scenario(1, 100));
  const auto hit = cache.lookup(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->key, 1U);
  EXPECT_EQ(cache.stats().hits, 1U);
  EXPECT_EQ(cache.stats().entries, 1U);
  EXPECT_EQ(cache.stats().bytes, 100U);
}

TEST(ScenarioCacheTest, EvictsLeastRecentlyUsedByBytes) {
  ScenarioCache cache(250);
  cache.insert(dummy_scenario(1, 100));
  cache.insert(dummy_scenario(2, 100));
  (void)cache.lookup(1);  // 2 is now the least recently used
  cache.insert(dummy_scenario(3, 100));  // 300 bytes > 250: evict 2
  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_EQ(cache.stats().bytes, 200U);
}

TEST(ScenarioCacheTest, NewestEntrySurvivesEvenWhenOversized) {
  ScenarioCache cache(50);
  cache.insert(dummy_scenario(1, 500));
  EXPECT_NE(cache.lookup(1), nullptr);
  cache.insert(dummy_scenario(2, 600));  // evicts 1, keeps itself
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(2), nullptr);
  EXPECT_EQ(cache.stats().entries, 1U);
}

TEST(ScenarioCacheTest, ReinsertRefreshesInPlace) {
  ScenarioCache cache(1000);
  cache.insert(dummy_scenario(1, 100));
  cache.insert(dummy_scenario(1, 150));  // same key, new footprint
  EXPECT_EQ(cache.stats().entries, 1U);
  EXPECT_EQ(cache.stats().bytes, 150U);
}

TEST(ScenarioCacheTest, ZeroBudgetDisablesCaching) {
  ScenarioCache cache(0);
  cache.insert(dummy_scenario(1, 10));
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0U);
}

TEST(Fnv1a64, MatchesKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace rap::serve
