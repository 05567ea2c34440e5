#include "tools/bench_compare/compare.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/serve/protocol.h"

namespace rap::tools {
namespace {

[[noreturn]] void fail(const std::string& origin, const std::string& what) {
  throw std::runtime_error(origin + ": " + what);
}

const serve::JsonValue& require(const serve::JsonValue::Object& object,
                                const std::string& key,
                                const std::string& origin) {
  const auto it = object.find(key);
  if (it == object.end()) fail(origin, "missing field \"" + key + "\"");
  return it->second;
}

}  // namespace

BenchDoc parse_bench_doc(const std::string& text, const std::string& origin) {
  serve::JsonValue root;
  try {
    root = serve::parse_json(text);
  } catch (const std::exception& error) {
    fail(origin, std::string("not valid JSON: ") + error.what());
  }
  if (!root.is_object()) fail(origin, "top level is not an object");
  const auto& object = root.as_object();

  const serve::JsonValue& schema = require(object, "schema", origin);
  if (!schema.is_string() || schema.as_string() != "rap.bench.v1") {
    fail(origin, "schema is not \"rap.bench.v1\"");
  }

  BenchDoc doc;
  const serve::JsonValue& bench = require(object, "bench", origin);
  if (!bench.is_string()) fail(origin, "\"bench\" is not a string");
  doc.bench = bench.as_string();

  if (const auto it = object.find("context"); it != object.end()) {
    if (!it->second.is_object()) fail(origin, "\"context\" is not an object");
    for (const auto& [key, value] : it->second.as_object()) {
      if (!value.is_string()) {
        fail(origin, "context value for \"" + key + "\" is not a string");
      }
      doc.context.emplace(key, value.as_string());
    }
  }

  const serve::JsonValue& metrics = require(object, "metrics", origin);
  if (!metrics.is_array()) fail(origin, "\"metrics\" is not an array");
  std::set<std::string> seen;
  for (const serve::JsonValue& entry : metrics.as_array()) {
    if (!entry.is_object()) fail(origin, "metric entry is not an object");
    const auto& fields = entry.as_object();
    BenchMetricValue metric;
    const serve::JsonValue& name = require(fields, "name", origin);
    if (!name.is_string()) fail(origin, "metric \"name\" is not a string");
    metric.name = name.as_string();
    const serve::JsonValue& value = require(fields, "value", origin);
    if (!value.is_number()) {
      fail(origin, "metric \"" + metric.name + "\" value is not a number");
    }
    metric.value = value.as_number();
    const serve::JsonValue& unit = require(fields, "unit", origin);
    if (!unit.is_string()) {
      fail(origin, "metric \"" + metric.name + "\" unit is not a string");
    }
    metric.unit = unit.as_string();
    const serve::JsonValue& lower =
        require(fields, "lower_is_better", origin);
    if (!lower.is_bool()) {
      fail(origin,
           "metric \"" + metric.name + "\" lower_is_better is not a bool");
    }
    metric.lower_is_better = lower.as_bool();
    if (!seen.insert(metric.name).second) {
      fail(origin, "duplicate metric \"" + metric.name + "\"");
    }
    doc.metrics.push_back(std::move(metric));
  }
  return doc;
}

BenchDoc load_bench_file(const std::filesystem::path& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open " + path.string());
  }
  std::ostringstream text;
  text << file.rdbuf();
  return parse_bench_doc(text.str(), path.string());
}

bool is_time_unit(const std::string& unit) {
  return unit == "ms" || unit == "s" || unit == "x" || unit == "ratio" ||
         unit == "req_s";
}

bool CompareResult::failed() const {
  return std::any_of(metrics.begin(), metrics.end(),
                     [](const MetricComparison& m) {
                       return m.status == MetricStatus::kRegressed ||
                              m.status == MetricStatus::kMissing;
                     });
}

CompareResult compare_docs(const BenchDoc& baseline, const BenchDoc& current,
                           const CompareOptions& options) {
  if (baseline.bench != current.bench) {
    throw std::runtime_error("bench mismatch: baseline is \"" +
                             baseline.bench + "\", current is \"" +
                             current.bench + "\"");
  }
  CompareResult result;
  result.bench = baseline.bench;
  for (const char* key : kHostContextKeys) {
    const auto recorded = [key](const BenchDoc& doc) {
      const auto it = doc.context.find(key);
      return it != doc.context.end() ? it->second : "(unrecorded)";
    };
    const std::string was = recorded(baseline);
    const std::string now = recorded(current);
    if (was != now) {
      result.warnings.push_back(std::string(key) + " differs: baseline '" +
                                was + "', current '" + now +
                                "'; wall times are not comparable");
    }
  }

  const auto find_current =
      [&](const std::string& name) -> const BenchMetricValue* {
    for (const BenchMetricValue& metric : current.metrics) {
      if (metric.name == name) return &metric;
    }
    return nullptr;
  };

  for (const BenchMetricValue& base : baseline.metrics) {
    MetricComparison comparison;
    comparison.name = base.name;
    comparison.unit = base.unit;
    comparison.baseline = base.value;
    comparison.tolerance_used =
        is_time_unit(base.unit) ? options.time_tolerance : options.tolerance;

    const BenchMetricValue* cur = find_current(base.name);
    if (cur == nullptr) {
      comparison.status = MetricStatus::kMissing;
      result.metrics.push_back(std::move(comparison));
      continue;
    }
    comparison.current = cur->value;

    if (base.value == 0.0) {
      // No meaningful fractional drift exists against a zero baseline.
      // Deterministic metrics must still be exactly zero; time metrics at
      // zero are timer quantization, not a contract, so they pass.
      const bool strict = !is_time_unit(base.unit);
      comparison.status = (strict && cur->value != 0.0)
                              ? MetricStatus::kRegressed
                              : MetricStatus::kOk;
      result.metrics.push_back(std::move(comparison));
      continue;
    }

    comparison.delta_fraction =
        (cur->value - base.value) / std::abs(base.value);
    const double bad_drift = base.lower_is_better
                                 ? comparison.delta_fraction
                                 : -comparison.delta_fraction;
    comparison.status = bad_drift > comparison.tolerance_used
                            ? MetricStatus::kRegressed
                            : MetricStatus::kOk;
    result.metrics.push_back(std::move(comparison));
  }

  for (const BenchMetricValue& cur : current.metrics) {
    const bool in_baseline = std::any_of(
        baseline.metrics.begin(), baseline.metrics.end(),
        [&](const BenchMetricValue& base) { return base.name == cur.name; });
    if (in_baseline) continue;
    MetricComparison comparison;
    comparison.name = cur.name;
    comparison.unit = cur.unit;
    comparison.current = cur.value;
    comparison.status = MetricStatus::kNew;
    result.metrics.push_back(std::move(comparison));
  }
  return result;
}

std::string format_report(const CompareResult& result) {
  std::ostringstream out;
  out << "bench " << result.bench << "\n";
  for (const MetricComparison& metric : result.metrics) {
    switch (metric.status) {
      case MetricStatus::kOk:
        out << "  ok        " << metric.name << ": " << metric.baseline
            << " -> " << metric.current << " " << metric.unit << " ("
            << metric.delta_fraction * 100.0 << "%, tol "
            << metric.tolerance_used * 100.0 << "%)\n";
        break;
      case MetricStatus::kNew:
        out << "  new       " << metric.name << ": " << metric.current << " "
            << metric.unit << " (not in baseline; refresh to adopt)\n";
        break;
      case MetricStatus::kMissing:
        out << "  MISSING   " << metric.name
            << ": in baseline but absent from current run\n";
        break;
      case MetricStatus::kRegressed:
        out << "  REGRESSED " << metric.name << ": " << metric.baseline
            << " -> " << metric.current << " " << metric.unit << " ("
            << metric.delta_fraction * 100.0 << "%, tol "
            << metric.tolerance_used * 100.0 << "%)\n";
        break;
    }
  }
  for (const std::string& warning : result.warnings) {
    out << "  WARNING   " << warning << "\n";
  }
  out << (result.failed() ? "FAIL" : "PASS") << "\n";
  return out.str();
}

}  // namespace rap::tools
