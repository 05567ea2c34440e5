#include "src/eval/geojson.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "tests/testing/builders.h"

namespace rap::eval {
namespace {

using testing::Fig4;

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(GeoJson, FeatureCollectionSkeleton) {
  const Fig4 fig;
  const std::string json =
      to_geojson(fig.net, fig.flows, Fig4::shop, core::Placement{Fig4::V3});
  EXPECT_NE(json.find(R"("type":"FeatureCollection")"), std::string::npos);
  EXPECT_NE(json.find(R"("features":[)"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(GeoJson, StreetCountMatchesTwoWayPairs) {
  const Fig4 fig;
  const std::string json = to_geojson(fig.net, {}, graph::kInvalidNode, {});
  // Fig. 4 has six two-way streets -> six street LineStrings.
  EXPECT_EQ(count_occurrences(json, R"("kind":"street")"), 6u);
}

TEST(GeoJson, FlowsCarryVolumes) {
  const Fig4 fig;
  GeoJsonOptions options;
  options.include_streets = false;
  const std::string json =
      to_geojson(fig.net, fig.flows, graph::kInvalidNode, {}, options);
  EXPECT_EQ(count_occurrences(json, R"("kind":"flow")"), 4u);
  EXPECT_NE(json.find(R"("daily_vehicles":6.00)"), std::string::npos);
  EXPECT_NE(json.find(R"("population":3.00)"), std::string::npos);
}

TEST(GeoJson, MinFlowFilter) {
  const Fig4 fig;
  GeoJsonOptions options;
  options.include_streets = false;
  options.min_flow_vehicles = 5.0;
  const std::string json =
      to_geojson(fig.net, fig.flows, graph::kInvalidNode, {}, options);
  EXPECT_EQ(count_occurrences(json, R"("kind":"flow")"), 2u);  // the two 6s
}

TEST(GeoJson, ShopAndRapsAsPoints) {
  const Fig4 fig;
  const core::Placement placement{Fig4::V3, Fig4::V5};
  const std::string json = to_geojson(fig.net, {}, Fig4::shop, placement);
  EXPECT_EQ(count_occurrences(json, R"("kind":"shop")"), 1u);
  EXPECT_EQ(count_occurrences(json, R"("kind":"rap")"), 2u);
  EXPECT_NE(json.find(R"("order":1)"), std::string::npos);
  EXPECT_NE(json.find(R"("order":2)"), std::string::npos);
}

TEST(GeoJson, NoShopMeansNoShopFeature) {
  const Fig4 fig;
  const std::string json = to_geojson(fig.net, {}, graph::kInvalidNode, {});
  EXPECT_EQ(count_occurrences(json, R"("kind":"shop")"), 0u);
}

TEST(GeoJson, BalancedBracesAndNoTrailingCommas) {
  const Fig4 fig;
  const std::string json =
      to_geojson(fig.net, fig.flows, Fig4::shop, core::Placement{Fig4::V2});
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find(",}"), std::string::npos);
}

TEST(GeoJson, BadPlacementNodeThrows) {
  const Fig4 fig;
  const core::Placement bad{99};
  EXPECT_THROW(to_geojson(fig.net, {}, graph::kInvalidNode, bad),
               std::out_of_range);
}

TEST(GeoJson, WritesFile) {
  const Fig4 fig;
  const auto dir = std::filesystem::temp_directory_path() / "rap_geojson";
  std::filesystem::remove_all(dir);
  const auto path = dir / "scene.geojson";
  write_geojson(path, fig.net, fig.flows, Fig4::shop,
                core::Placement{Fig4::V3});
  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(),
            to_geojson(fig.net, fig.flows, Fig4::shop,
                       core::Placement{Fig4::V3}));
  std::filesystem::remove_all(dir);
}

TEST(GeoJson, WriteErrorAtCloseThrows) {
  // A small scene fits the stream's buffer, so /dev/full only refuses it
  // when the file is flushed and closed.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Fig4 fig;
  try {
    write_geojson("/dev/full", fig.net, {}, graph::kInvalidNode, {});
    ADD_FAILURE() << "expected a write error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("/dev/full"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace rap::eval
