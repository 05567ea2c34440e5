// Tests for the perf-baseline gate's comparison engine
// (tools/bench_compare/compare.h): rap.bench.v1 parsing and validation,
// the unit-driven tolerance classes, the >10% regression gate on a
// synthetic fixture, and the missing/new metric rules.
#include "tools/bench_compare/compare.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace rap::tools {
namespace {

/// A minimal valid document with two metrics: one deterministic (count),
/// one wall-clock (ms).
std::string doc(double items, double ms) {
  return std::string("{\"schema\": \"rap.bench.v1\", \"bench\": \"synthetic\","
                     " \"context\": {\"city\": \"grid\"}, \"metrics\": ["
                     "{\"name\": \"work.items\", \"value\": ") +
         std::to_string(items) +
         ", \"unit\": \"count\", \"lower_is_better\": true},"
         "{\"name\": \"work.ms\", \"value\": " +
         std::to_string(ms) +
         ", \"unit\": \"ms\", \"lower_is_better\": true}]}";
}

const MetricComparison& metric(const CompareResult& result,
                               const std::string& name) {
  for (const MetricComparison& m : result.metrics) {
    if (m.name == name) return m;
  }
  throw std::logic_error("metric not found: " + name);
}

TEST(BenchDocParsing, AcceptsTheDocumentedShape) {
  const BenchDoc parsed = parse_bench_doc(doc(100, 10), "test");
  EXPECT_EQ(parsed.bench, "synthetic");
  EXPECT_EQ(parsed.context.at("city"), "grid");
  ASSERT_EQ(parsed.metrics.size(), 2u);
  EXPECT_EQ(parsed.metrics[0].name, "work.items");
  EXPECT_EQ(parsed.metrics[0].value, 100.0);
  EXPECT_EQ(parsed.metrics[0].unit, "count");
  EXPECT_TRUE(parsed.metrics[0].lower_is_better);
}

TEST(BenchDocParsing, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_bench_doc("not json", "t"), std::runtime_error);
  EXPECT_THROW(parse_bench_doc("[]", "t"), std::runtime_error);
  EXPECT_THROW(parse_bench_doc(R"({"schema": "rap.bench.v2", "bench": "x",
                                   "metrics": []})",
                               "t"),
               std::runtime_error);
  EXPECT_THROW(parse_bench_doc(R"({"bench": "x", "metrics": []})", "t"),
               std::runtime_error);
  EXPECT_THROW(parse_bench_doc(R"({"schema": "rap.bench.v1", "bench": "x"})",
                               "t"),
               std::runtime_error);
  // A metric missing its unit, and a duplicate metric name.
  EXPECT_THROW(
      parse_bench_doc(R"({"schema": "rap.bench.v1", "bench": "x", "metrics":
                          [{"name": "a", "value": 1,
                            "lower_is_better": true}]})",
                      "t"),
      std::runtime_error);
  EXPECT_THROW(
      parse_bench_doc(
          R"({"schema": "rap.bench.v1", "bench": "x", "metrics":
              [{"name": "a", "value": 1, "unit": "ms",
                "lower_is_better": true},
               {"name": "a", "value": 2, "unit": "ms",
                "lower_is_better": true}]})",
          "t"),
      std::runtime_error);
}

TEST(BenchCompare, TimeUnitsAreClassifiedLoose) {
  for (const char* unit : {"ms", "s", "x", "ratio", "req_s"}) {
    EXPECT_TRUE(is_time_unit(unit)) << unit;
  }
  for (const char* unit : {"count", "bytes", "", "items"}) {
    EXPECT_FALSE(is_time_unit(unit)) << unit;
  }
}

TEST(BenchCompare, IdenticalRunsPass) {
  const BenchDoc base = parse_bench_doc(doc(100, 10), "base");
  const CompareResult result = compare_docs(base, base, CompareOptions{});
  EXPECT_FALSE(result.failed());
  for (const MetricComparison& m : result.metrics) {
    EXPECT_EQ(m.status, MetricStatus::kOk);
    EXPECT_EQ(m.delta_fraction, 0.0);
  }
}

TEST(BenchCompare, SyntheticRegressionPastTenPercentFails) {
  const BenchDoc base = parse_bench_doc(doc(100, 10), "base");
  // 15% more work items: past the strict 10% default for "count".
  const BenchDoc worse = parse_bench_doc(doc(115, 10), "cur");
  const CompareResult result = compare_docs(base, worse, CompareOptions{});
  EXPECT_TRUE(result.failed());
  EXPECT_EQ(metric(result, "work.items").status, MetricStatus::kRegressed);
  EXPECT_NEAR(metric(result, "work.items").delta_fraction, 0.15, 1e-12);
  // Exactly at the bar is not past it.
  const BenchDoc at_bar = parse_bench_doc(doc(110, 10), "cur");
  EXPECT_FALSE(compare_docs(base, at_bar, CompareOptions{}).failed());
}

TEST(BenchCompare, TimeMetricsGetTheLooseTolerance) {
  const BenchDoc base = parse_bench_doc(doc(100, 10), "base");
  // +40% wall clock: past 10% strict, inside the 50% default time band.
  const BenchDoc slower = parse_bench_doc(doc(100, 14), "cur");
  EXPECT_FALSE(compare_docs(base, slower, CompareOptions{}).failed());
  // Tightening --time-tolerance to 10% turns the same drift into a failure.
  CompareOptions tight;
  tight.time_tolerance = 0.10;
  const CompareResult result = compare_docs(base, slower, tight);
  EXPECT_TRUE(result.failed());
  EXPECT_EQ(metric(result, "work.ms").status, MetricStatus::kRegressed);
  EXPECT_EQ(metric(result, "work.ms").tolerance_used, 0.10);
}

TEST(BenchCompare, ImprovementsAndGoodDirectionNeverFail) {
  const BenchDoc base = parse_bench_doc(doc(100, 10), "base");
  const BenchDoc better = parse_bench_doc(doc(50, 1), "cur");
  EXPECT_FALSE(compare_docs(base, better, CompareOptions{}).failed());

  // For a higher-is-better metric the same drop IS a regression.
  const std::string up_base =
      R"({"schema": "rap.bench.v1", "bench": "synthetic", "metrics":
          [{"name": "speed", "value": 100, "unit": "count",
            "lower_is_better": false}]})";
  const std::string up_cur =
      R"({"schema": "rap.bench.v1", "bench": "synthetic", "metrics":
          [{"name": "speed", "value": 80, "unit": "count",
            "lower_is_better": false}]})";
  const CompareResult result =
      compare_docs(parse_bench_doc(up_base, "b"), parse_bench_doc(up_cur, "c"),
                   CompareOptions{});
  EXPECT_TRUE(result.failed());
  EXPECT_EQ(metric(result, "speed").status, MetricStatus::kRegressed);
}

TEST(BenchCompare, MissingMetricFailsNewMetricDoesNot) {
  const std::string base =
      R"({"schema": "rap.bench.v1", "bench": "synthetic", "metrics":
          [{"name": "a", "value": 1, "unit": "count",
            "lower_is_better": true}]})";
  const std::string current =
      R"({"schema": "rap.bench.v1", "bench": "synthetic", "metrics":
          [{"name": "b", "value": 1, "unit": "count",
            "lower_is_better": true}]})";
  const CompareResult result =
      compare_docs(parse_bench_doc(base, "b"), parse_bench_doc(current, "c"),
                   CompareOptions{});
  EXPECT_TRUE(result.failed());
  EXPECT_EQ(metric(result, "a").status, MetricStatus::kMissing);
  EXPECT_EQ(metric(result, "b").status, MetricStatus::kNew);
}

TEST(BenchCompare, ZeroBaselines) {
  const std::string base =
      R"({"schema": "rap.bench.v1", "bench": "synthetic", "metrics":
          [{"name": "exact", "value": 0, "unit": "count",
            "lower_is_better": true},
           {"name": "timer", "value": 0, "unit": "ms",
            "lower_is_better": true}]})";
  const std::string current =
      R"({"schema": "rap.bench.v1", "bench": "synthetic", "metrics":
          [{"name": "exact", "value": 1, "unit": "count",
            "lower_is_better": true},
           {"name": "timer", "value": 5, "unit": "ms",
            "lower_is_better": true}]})";
  const CompareResult result =
      compare_docs(parse_bench_doc(base, "b"), parse_bench_doc(current, "c"),
                   CompareOptions{});
  // A deterministic zero must stay zero; a zero timer reading is noise.
  EXPECT_EQ(metric(result, "exact").status, MetricStatus::kRegressed);
  EXPECT_EQ(metric(result, "timer").status, MetricStatus::kOk);
}

TEST(BenchCompare, BenchNameMismatchIsAUsageError) {
  const BenchDoc base = parse_bench_doc(doc(100, 10), "base");
  BenchDoc other = base;
  other.bench = "different";
  EXPECT_THROW((void)compare_docs(base, other, CompareOptions{}),
               std::runtime_error);
}

TEST(BenchCompare, ReportNamesEveryVerdict) {
  const BenchDoc base = parse_bench_doc(doc(100, 10), "base");
  const BenchDoc worse = parse_bench_doc(doc(120, 10), "cur");
  const std::string report =
      format_report(compare_docs(base, worse, CompareOptions{}));
  EXPECT_NE(report.find("REGRESSED work.items"), std::string::npos);
  EXPECT_NE(report.find("ok        work.ms"), std::string::npos);
  EXPECT_NE(report.find("FAIL"), std::string::npos);
  const std::string pass_report =
      format_report(compare_docs(base, base, CompareOptions{}));
  EXPECT_NE(pass_report.find("PASS"), std::string::npos);
}

TEST(BenchCompare, HostContextDifferencesWarnButDoNotFail) {
  // Two fixture documents of one bench, recorded on different hosts: the
  // metrics pass, and each differing host key yields one warning line.
  const std::string dir = RAP_BENCH_FIXTURE_DIR;
  const BenchDoc baseline = load_bench_file(dir + "/host_baseline.json");
  const BenchDoc current = load_bench_file(dir + "/host_current.json");
  const CompareResult result = compare_docs(baseline, current, {});
  EXPECT_FALSE(result.failed());
  ASSERT_EQ(result.warnings.size(), 2u);
  EXPECT_NE(result.warnings[0].find("hardware_concurrency differs: baseline "
                                    "'1', current '4'"),
            std::string::npos);
  EXPECT_NE(result.warnings[1].find("build_type differs"), std::string::npos);
  const std::string report = format_report(result);
  EXPECT_NE(report.find("WARNING   hardware_concurrency"), std::string::npos);
  EXPECT_NE(report.find("PASS"), std::string::npos);

  // Same host: no warnings. A baseline that never recorded the host warns.
  EXPECT_TRUE(compare_docs(current, current, {}).warnings.empty());
  const CompareResult unrecorded =
      compare_docs(parse_bench_doc(doc(100, 10), "old"),
                   parse_bench_doc(doc(100, 10), "old"), {});
  EXPECT_TRUE(unrecorded.warnings.empty());
  BenchDoc stamped = parse_bench_doc(doc(100, 10), "new");
  stamped.context["hardware_concurrency"] = "4";
  const CompareResult mixed =
      compare_docs(parse_bench_doc(doc(100, 10), "old"), stamped, {});
  ASSERT_EQ(mixed.warnings.size(), 1u);
  EXPECT_NE(mixed.warnings[0].find("'(unrecorded)', current '4'"),
            std::string::npos);
  EXPECT_FALSE(mixed.failed());
}

}  // namespace
}  // namespace rap::tools
