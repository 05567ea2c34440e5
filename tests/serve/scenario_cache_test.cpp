#include "src/serve/scenario_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <stdexcept>

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
  // Recorded when file keys hashed each whole file at once. Keys name the
  // store's segments, so hashing the files in chunks must not move them.
  const auto dir =
      std::filesystem::temp_directory_path() / "rap_scenario_key_golden";
  const ScenarioSpec spec = file_spec(dir);
  EXPECT_GT(std::filesystem::file_size(spec.flows_path), 3u * 64 * 1024);
  EXPECT_EQ(scenario_key(spec), 0xc0c37e0770befaadULL);
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
