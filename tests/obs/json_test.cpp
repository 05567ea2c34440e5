#include "src/obs/json.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace rap::obs {
namespace {

// Minimal structural JSON validation: balanced containers outside strings,
// legal escapes. Enough to catch emitter bugs without a JSON dependency.
bool structurally_valid_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(ToJson, EmptyTelemetryGolden) {
  const Telemetry telemetry;
  EXPECT_EQ(to_json(telemetry),
            R"({"schema":"rap.telemetry.v1","trace":[],"counters":{},)"
            R"("gauges":{},"histograms":{}})");
}

TEST(ToJson, MetricsGolden) {
  // Deterministic inputs (no spans: span durations are wall-clock) so the
  // serialised form can be pinned byte-for-byte. This is the schema contract
  // test — update the string ONLY on a deliberate schema change.
  Telemetry telemetry;
  telemetry.metrics.counter("b.count").add(2);
  telemetry.metrics.counter("a.count").add(40);
  telemetry.metrics.gauge("size").set(2.5);
  Histogram& h = telemetry.metrics.histogram("lat", {1.0, 10.0});
  h.observe(0.5);
  h.observe(4.0);
  h.observe(20.0);
  EXPECT_EQ(
      to_json(telemetry),
      R"({"schema":"rap.telemetry.v1","trace":[],)"
      R"("counters":{"a.count":40,"b.count":2},)"
      R"("gauges":{"size":2.5},)"
      R"("histograms":{"lat":{"count":3,"mean":8.16666667,"stddev":10.3963134,)"
      R"("min":0.5,"max":20,"p50":4,"p95":18.4,"p99":19.68,)"
      R"("percentiles_exact":true,)"
      R"("buckets":[{"le":1,"count":1},{"le":10,"count":1},{"le":null,"count":1}]}}})");
}

TEST(ToJson, UnsetGaugesExportAsNull) {
  // A merely-materialized gauge has no reading; exporting 0 would be
  // indistinguishable from a real zero.
  Telemetry telemetry;
  (void)telemetry.metrics.gauge("unset");
  telemetry.metrics.gauge("set").set(0.0);
  EXPECT_NE(to_json(telemetry).find(R"("gauges":{"set":0,"unset":null})"),
            std::string::npos);
}

TEST(ToJson, CountersSortByName) {
  Telemetry telemetry;
  telemetry.metrics.counter("z").add(1);
  telemetry.metrics.counter("a").add(1);
  const std::string json = to_json(telemetry);
  EXPECT_LT(json.find("\"a\""), json.find("\"z\""));
}

TEST(ToJson, EmptyHistogramEmitsNullMoments) {
  Telemetry telemetry;
  telemetry.metrics.histogram("empty", {1.0});
  const std::string json = to_json(telemetry);
  EXPECT_NE(json.find(R"("count":0,"mean":null)"), std::string::npos);
  EXPECT_NE(json.find(R"("p50":null)"), std::string::npos);
  EXPECT_TRUE(structurally_valid_json(json));
}

TEST(ToJson, TraceTreeShape) {
  Telemetry telemetry;
  {
    const Span outer(&telemetry.trace, "outer");
    const Span inner(&telemetry.trace, "inner");
  }
  const std::string json = to_json(telemetry);
  EXPECT_TRUE(structurally_valid_json(json));
  EXPECT_NE(json.find(R"("name":"outer")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"inner")"), std::string::npos);
  EXPECT_NE(json.find(R"("calls":1)"), std::string::npos);
  // inner must appear inside outer's children array.
  EXPECT_LT(json.find(R"("name":"outer")"), json.find(R"("name":"inner")"));
}

TEST(ToJson, EscapesMetricNames) {
  Telemetry telemetry;
  // Hostile name on purpose: the exporter must escape it even though the
  // rap.telemetry.v1 grammar forbids such names at instrumentation sites.
  telemetry.metrics.counter("weird\"name\\with\nstuff").add(1);  // rap-lint: allow(RAP005)
  const std::string json = to_json(telemetry);
  EXPECT_TRUE(structurally_valid_json(json));
  EXPECT_NE(json.find(R"(weird\"name\\with\nstuff)"), std::string::npos);
}

// Beyond long long's range the integer fast path must not even be tried: the
// cast would be undefined (the sanitize build's float-cast-overflow check
// traps it). Either side of the 9e15 switch prints as before.
TEST(JsonNumberRepr, HugeMagnitudesSkipTheIntegerCast) {
  EXPECT_EQ(json_number_repr(8.999999999999999e15), "8999999999999999");
  EXPECT_EQ(json_number_repr(9.0e15), "9e+15");
  EXPECT_EQ(json_number_repr(1e300), "1e+300");
  EXPECT_EQ(json_number_repr(-1e300), "-1e+300");
  EXPECT_EQ(json_number_repr(1e19), "1e+19");
  EXPECT_EQ(json_number_repr(-1e19), "-1e+19");
}

TEST(WriteJson, CreatesParentDirectories) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "rap_obs_json_test";
  std::filesystem::remove_all(dir);
  const std::filesystem::path path = dir / "nested" / "telemetry.json";

  Telemetry telemetry;
  telemetry.metrics.counter("c").add(1);
  write_json(path, telemetry);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("rap.telemetry.v1"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(WriteJson, WriteErrorAtCloseThrows) {
  // A small document fits the stream's buffer, so /dev/full only refuses
  // it when the file is flushed and closed.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Telemetry telemetry;
  telemetry.metrics.counter("c").add(1);
  try {
    write_json("/dev/full", telemetry);
    ADD_FAILURE() << "expected a write error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("/dev/full"), std::string::npos)
        << error.what();
  }
}

TEST(FormatTraceText, IndentsByDepth) {
  Telemetry telemetry;
  {
    const Span outer(&telemetry.trace, "outer");
    const Span inner(&telemetry.trace, "inner");
  }
  const std::string text = format_trace_text(telemetry.trace);
  EXPECT_NE(text.find("outer  "), std::string::npos);
  EXPECT_NE(text.find("\n  inner  "), std::string::npos);
  EXPECT_NE(text.find("(1 call)"), std::string::npos);
}

TEST(FormatTraceText, EmptyTraceIsEmptyString) {
  const Tracer tracer;
  EXPECT_EQ(format_trace_text(tracer), "");
}

}  // namespace
}  // namespace rap::obs
