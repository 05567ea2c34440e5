#include "bench/e2e/report.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench/e2e/stats.h"
#include "rap_version.h"
#include "src/serve/protocol.h"

namespace rap::bench::e2e {
namespace {

using serve::JsonValue;

#if defined(__OPTIMIZE__)
constexpr bool kOptimised = true;
#else
constexpr bool kOptimised = false;
#endif

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

JsonValue read_json(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return serve::parse_json(text.str());
}

/// (workload, metric) -> values, one per run, from one directory.
using Results = std::map<std::pair<std::string, std::string>,
                         std::vector<double>>;

Results read_results(const std::filesystem::path& dir,
                     std::map<std::string, std::string>& units) {
  Results results;
  const std::string prefix = "rap_bench.";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (!entry.is_regular_file() || !file.ends_with(".json") ||
        file.ends_with(".trace.json")) {
      continue;
    }
    JsonValue doc;
    try {
      doc = read_json(entry.path());
    } catch (const std::exception&) {
      continue;  // not a result document
    }
    if (!doc.is_object()) continue;
    const JsonValue::Object& object = doc.as_object();
    const std::string bench = serve::get_string(object, "bench", "");
    if (serve::get_string(object, "schema", "") != kBenchSchema ||
        bench.rfind(prefix, 0) != 0) {
      continue;
    }
    const JsonValue* metrics = serve::find_field(object, "metrics");
    if (metrics == nullptr || !metrics->is_array()) continue;
    for (const JsonValue& metric : metrics->as_array()) {
      const JsonValue::Object& fields = metric.as_object();
      const std::string name = serve::require_string(fields, "name");
      results[{bench.substr(prefix.size()), name}].push_back(
          serve::require_number(fields, "value"));
      units[name] = serve::get_string(fields, "unit", "");
    }
  }
  return results;
}

/// Metric name -> the share of the first side's median it may move (from
/// BENCHMARK.json); 0 when the metric has no bound.
std::map<std::string, double> read_bounds(const std::filesystem::path& path) {
  std::map<std::string, double> bounds;
  const JsonValue doc = read_json(path);
  for (const char* section : {"end_to_end", "per_layer"}) {
    const JsonValue* list = serve::find_field(doc.as_object(), section);
    if (list == nullptr) continue;
    for (const JsonValue& metric : list->as_array()) {
      const JsonValue::Object& fields = metric.as_object();
      bounds[serve::require_string(fields, "name")] =
          serve::get_number(fields, "bound", 0.0);
    }
  }
  return bounds;
}

double spread(const Quartiles& q) {
  return q.median != 0.0 ? (q.q3 - q.q1) / std::abs(q.median) : 0.0;
}

/// setup_s is judged on its medians alone: it guards against work moved
/// into set-up, which moves the median, and its spread between runs is
/// mostly the host's file-system and process-start noise.
std::string verdict(const std::string& metric, const std::vector<double>& a,
                    const std::vector<double>& b, double bound) {
  if (!(bound > 0.0)) return "-";
  const Quartiles qa = quartiles(a);
  const Quartiles qb = quartiles(b);
  if (metric != "setup_s" && std::max(spread(qa), spread(qb)) > bound) {
    // Too noisy to read a difference within the bound, unless every run of
    // one side beats every run of the other.
    const bool apart = *std::max_element(a.begin(), a.end()) <
                           *std::min_element(b.begin(), b.end()) ||
                       *std::max_element(b.begin(), b.end()) <
                           *std::min_element(a.begin(), a.end());
    return apart ? "disagree" : "unresolved";
  }
  const double change =
      qa.median != 0.0 ? std::abs(qb.median - qa.median) / std::abs(qa.median)
                       : 0.0;
  return change <= bound ? "agree" : "disagree";
}

}  // namespace

Context host_context(std::uint64_t seed, const std::string& serve_bin) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      ::sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  const char* rap_threads = std::getenv("RAP_THREADS");
  return {
      {"nproc", std::to_string(nproc)},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"rap_threads", rap_threads != nullptr ? rap_threads : "(unset)"},
      {"build_type", RAP_BUILD_TYPE[0] != '\0' ? RAP_BUILD_TYPE : "(empty)"},
      {"optimised", kOptimised ? "yes" : "no"},
      {"compiler", compiler()},
      {"git_describe", RAP_GIT_DESCRIBE},
      {"seed", std::to_string(seed)},
      {"rap_serve", serve_bin},
  };
}

void warn_if_unoptimised() {
  if (!kOptimised) {
    std::cerr << "rap_bench: WARNING: built without optimisation (build type '"
              << RAP_BUILD_TYPE << "'); timings are not comparable\n";
  }
}

std::vector<BenchMetric> end_to_end(const SocketRun& run) {
  return {
      {"setup_s", percentile(run.setup_s, 50.0), "s", true},
      {"peak_rss_mb", run.peak_rss_mb, "MiB", true},
  };
}

std::vector<BenchMetric> timings(const SocketRun& run) {
  return {
      {"p50_ms", percentile(run.latencies_ms, 50.0), "ms", true},
      {"tail_ms",
       windowed_percentile(run.latencies_ms, run.tail_percentile, kTailWindow),
       "ms", true},
      {"throughput_per_s", run.throughput_per_s, "1/s", false},
  };
}

int compare_results(const std::filesystem::path& dir_a,
                    const std::filesystem::path& dir_b,
                    const std::filesystem::path& benchmark_json,
                    std::ostream& out) {
  std::map<std::string, std::string> units;
  const Results a = read_results(dir_a, units);
  const Results b = read_results(dir_b, units);
  const std::map<std::string, double> bounds = read_bounds(benchmark_json);
  std::map<std::pair<std::string, std::string>, bool> keys;
  for (const auto& [key, values] : a) keys[key] = true;
  for (const auto& [key, values] : b) keys[key] = true;

  char row[320];
  std::snprintf(row, sizeof row, "%-13s %-30s %-6s %4s %-34s %4s %-34s %s\n",
                "workload", "metric", "unit", "n_a", "median_a [q1, q3]",
                "n_b", "median_b [q1, q3]", "verdict");
  out << row;
  int bad = 0;
  for (const auto& [key, unused] : keys) {
    const auto side = [&](const Results& results) {
      const auto it = results.find(key);
      return it != results.end() ? it->second : std::vector<double>{};
    };
    const std::vector<double> va = side(a);
    const std::vector<double> vb = side(b);
    const auto bound = bounds.find(key.second);
    std::string result = "missing";
    if (!va.empty() && !vb.empty()) {
      result = bound != bounds.end()
                   ? verdict(key.second, va, vb, bound->second)
                   : "-";
    }
    if (bound != bounds.end() && bound->second > 0.0 && result != "agree") {
      ++bad;
    }
    const auto cell = [](const std::vector<double>& values) {
      if (values.empty()) return std::string("-");
      const Quartiles q = quartiles(values);
      char text[64];
      std::snprintf(text, sizeof text, "%.6g [%.6g, %.6g]", q.median, q.q1,
                    q.q3);
      return std::string(text);
    };
    std::snprintf(row, sizeof row,
                  "%-13s %-30s %-6s %4zu %-34s %4zu %-34s %s\n",
                  key.first.c_str(), key.second.c_str(),
                  units[key.second].c_str(), va.size(), cell(va).c_str(),
                  vb.size(), cell(vb).c_str(), result.c_str());
    out << row;
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace rap::bench::e2e
