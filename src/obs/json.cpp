#include "src/obs/json.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/util/text_file.h"

namespace rap::obs {

// JSON has no Infinity/NaN literals; empty-accumulator sentinels (see
// util::RunningStats) serialise as null.
std::string json_number_repr(double value) {
  if (!std::isfinite(value)) return "null";
  // Magnitude first: casting a double beyond long long's range is undefined.
  if (std::abs(value) < 9.0e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    return std::to_string(static_cast<long long>(value));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

namespace {

void append_trace_node(std::ostringstream& out, const Tracer::Node& node) {
  out << "{\"name\":" << json_quote(node.name) << ",\"calls\":" << node.calls
      << ",\"total_ms\":" << json_number_repr(node.total_ms())
      << ",\"self_ms\":"
      << json_number_repr(static_cast<double>(node.self_ns()) / 1e6)
      << ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out << ",";
    append_trace_node(out, *node.children[i]);
  }
  out << "]}";
}

void append_histogram(std::ostringstream& out, const Histogram& hist) {
  const bool empty = hist.count() == 0;
  const auto stat = [&](double v) {
    return empty ? "null" : json_number_repr(v);
  };
  out << "{\"count\":" << hist.count()
      << ",\"mean\":" << stat(hist.stats().mean())
      << ",\"stddev\":" << stat(hist.stats().stddev())
      << ",\"min\":" << stat(hist.stats().min())
      << ",\"max\":" << stat(hist.stats().max())
      << ",\"p50\":"
      << (empty ? "null" : json_number_repr(hist.percentile(50.0)))
      << ",\"p95\":"
      << (empty ? "null" : json_number_repr(hist.percentile(95.0)))
      << ",\"p99\":"
      << (empty ? "null" : json_number_repr(hist.percentile(99.0)))
      << ",\"percentiles_exact\":"
      << (hist.percentiles_exact() ? "true" : "false") << ",\"buckets\":[";
  const auto edges = hist.upper_edges();
  const auto counts = hist.bucket_counts();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"le\":"
        << (i < edges.size() ? json_number_repr(edges[i]) : std::string("null"))
        << ",\"count\":" << counts[i] << "}";
  }
  out << "]}";
}

void append_text_node(std::ostringstream& out, const Tracer::Node& node,
                      int depth) {
  out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << node.name
      << "  " << json_number_repr(node.total_ms()) << " ms  (" << node.calls
      << (node.calls == 1 ? " call)" : " calls)") << "\n";
  for (const auto& child : node.children) {
    append_text_node(out, *child, depth + 1);
  }
}

}  // namespace

std::string to_json(const Telemetry& telemetry) {
  std::ostringstream out;
  out << "{\"schema\":\"" << kTelemetrySchema << "\",\"trace\":[";
  const auto& top = telemetry.trace.root().children;
  for (std::size_t i = 0; i < top.size(); ++i) {
    if (i > 0) out << ",";
    append_trace_node(out, *top[i]);
  }
  out << "],\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : telemetry.metrics.counters()) {
    if (!first) out << ",";
    first = false;
    out << json_quote(name) << ":" << counter.value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : telemetry.metrics.gauges()) {
    if (!first) out << ",";
    first = false;
    // Unset gauges export null: 0.0 would be indistinguishable from a real
    // zero reading.
    out << json_quote(name) << ":"
        << (gauge.has_value() ? json_number_repr(gauge.value())
                              : std::string("null"));
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : telemetry.metrics.histograms()) {
    if (!first) out << ",";
    first = false;
    out << json_quote(name) << ":";
    append_histogram(out, hist);
  }
  out << "}}";
  return out.str();
}

void write_json(const std::filesystem::path& path, const Telemetry& telemetry) {
  const std::string text = to_json(telemetry);
  util::write_text_file("obs::write_json", path,
                        [&](std::ostream& out) { out << text << "\n"; });
}

std::string format_trace_text(const Tracer& tracer) {
  std::ostringstream out;
  for (const auto& child : tracer.root().children) {
    append_text_node(out, *child, 0);
  }
  return out.str();
}

}  // namespace rap::obs
