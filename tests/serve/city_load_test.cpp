// A generated-city `load` streams its GPS day one journey at a time
// (DESIGN.md §11). These tests pin that the streamed build is the
// collected pipeline's answer, bit for bit, and that it never holds the
// whole day: a Dublin load's peak resident set grows by a few MiB at most.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/serve/scenario_cache.h"
#include "src/trace/city_preset.h"
#include "src/trace/classify.h"
#include "src/trace/map_matcher.h"
#include "src/trace/record.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RAP_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RAP_TEST_SANITIZED 1
#endif
#endif

namespace rap::serve {
namespace {

/// Seeds 1-10, then five of the city_cold workload's seeds (the first five
/// of bench/e2e's city_seeds(1)).
const std::vector<std::uint64_t> kSeeds = {1,      2,      3,    4,      5,
                                           6,      7,      8,    9,      10,
                                           173771, 396564, 1183, 793146, 448351};

/// The shop a `load` with the default "city" class picks from `flows`.
graph::NodeId reference_shop(const graph::RoadNetwork& net,
                             const std::vector<traffic::TrafficFlow>& flows,
                             std::uint64_t seed) {
  const std::vector<graph::NodeId> pool = trace::nodes_in_class(
      trace::classify_intersections(net, flows), trace::LocationClass::kCity);
  util::Rng rng(seed ^ 0x5eed);
  return pool[rng.next_below(pool.size())];
}

/// The collected pipeline (the whole day, then extraction) against the
/// streamed one and against a `load`'s build, for one city and seed.
void expect_streamed_equals_collected(const std::string& name,
                                      std::uint64_t seed) {
  SCOPED_TRACE(name + " seed " + std::to_string(seed));
  ScenarioSpec spec;
  spec.city = name;
  spec.seed = seed;

  util::Rng collected_rng(seed);
  const trace::CityPreset city =
      trace::make_city(name, spec.journeys, collected_rng);
  const trace::SyntheticTrace day =
      trace::generate_trace(city.net, city.gen, collected_rng);
  // The generator emits the canonical order itself: no sort moves a record.
  EXPECT_NO_THROW((void)trace::split_runs(day.records));
  std::vector<trace::TraceRecord> sorted = day.records;
  trace::sort_records(sorted);
  EXPECT_TRUE(sorted == day.records);
  const trace::MapMatcher matcher(city.net, city.snap_radius);
  const std::vector<traffic::TrafficFlow> collected =
      trace::extract_flows(matcher, day.records, city.extraction());
  ASSERT_FALSE(collected.empty());

  util::Rng streamed_rng(seed);
  const trace::CityPreset streamed_city =
      trace::make_city(name, spec.journeys, streamed_rng);
  const std::vector<traffic::TrafficFlow> streamed =
      trace::stream_flows(streamed_city, streamed_rng);
  ASSERT_EQ(streamed.size(), collected.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_TRUE(streamed[i] == collected[i]) << "flow " << i;
  }
  // Both consumed the same draws.
  EXPECT_EQ(streamed_rng.next_u64(), collected_rng.next_u64());

  const auto scenario = build_scenario(spec, scenario_key(spec));
  ASSERT_EQ(scenario->flows.size(), collected.size());
  for (std::size_t i = 0; i < collected.size(); ++i) {
    EXPECT_TRUE(scenario->flows[i] == collected[i]) << "flow " << i;
  }
  EXPECT_EQ(scenario->shop, reference_shop(city.net, collected, seed));
}

TEST(StreamedCityLoad, DublinEqualsCollectedPipeline) {
  for (const std::uint64_t seed : kSeeds) {
    expect_streamed_equals_collected("dublin", seed);
  }
}

TEST(StreamedCityLoad, SeattleEqualsCollectedPipeline) {
  for (const std::uint64_t seed : kSeeds) {
    expect_streamed_equals_collected("seattle", seed);
  }
}

TEST(StreamedCityLoad, GridEqualsCollectedPipeline) {
  for (const std::uint64_t seed : kSeeds) {
    expect_streamed_equals_collected("grid", seed);
  }
}

TEST(StreamedCityLoad, UnknownCityIsRejectedBeforeAnyDraw) {
  util::Rng rng(1);
  util::Rng untouched(1);
  EXPECT_THROW((void)trace::make_city("atlantis", 10, rng),
               std::invalid_argument);
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

/// This process's peak resident set (VmHWM), KiB; -1 when unreadable.
long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

// The collected pipeline held Dublin's ~306 k samples at once and grew the
// peak by ~21 MiB; streamed, one journey's ~3 k samples are the largest
// transient. A forked child builds the load so that nothing this process
// allocated earlier hides the growth.
TEST(StreamedCityLoad, DublinLoadGrowsPeakRssByAtMostSixMiB) {
#ifdef RAP_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer allocators and shadow memory inflate the peak";
#endif
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(fds[0]);
    long growth = -1;
    try {
      ScenarioSpec spec;
      spec.city = "dublin";
      spec.seed = 1;
      const long before = peak_rss_kib();
      const auto scenario = build_scenario(spec, scenario_key(spec));
      const long after = peak_rss_kib();
      if (before >= 0 && after >= 0 && !scenario->flows.empty()) {
        growth = after - before;
      }
    } catch (...) {
    }
    const bool sent = write(fds[1], &growth, sizeof growth) == sizeof growth;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  long growth = -1;
  const bool received = read(fds[0], &growth, sizeof growth) == sizeof growth;
  close(fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(received && WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_GE(growth, 0) << "the child could not build the load or read VmHWM";
  EXPECT_LE(growth, 6 * 1024) << "a Dublin load grew the peak by " << growth
                              << " KiB";
}

}  // namespace
}  // namespace rap::serve
