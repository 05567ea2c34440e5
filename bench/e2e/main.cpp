// rap_bench: the end-to-end benchmark of the placement service, driven over
// rap.serve.v1 against a rap_serve child (README.md here; the workloads and
// metrics are declared in BENCHMARK.json at the repository root).
//
//   rap_bench --workload metro_cold|serve_steady|delta_churn|city_cold|all
//             [--seed 1] [--seconds 20] [--trace 0|1] [--size full|smoke]
//             [--out-dir bench_results/e2e] [--serve-bin PATH]
//             [--reference FILE]
//   rap_bench --compare DIR_A DIR_B [--benchmark BENCHMARK.json]
//
// A run prints a table per workload (every metric it measured, with
// error_ratio) and writes one rap.bench.v1 document
// per workload to --out-dir: <workload>.seed<N>.json, or with --trace 1
// <workload>.seed<N>.layers.json plus the Chrome trace
// <workload>.seed<N>.trace.json. The last line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// carrying the end-to-end metrics (setup_s, peak_rss_mb), or with --trace 1
// the per-layer metrics: the socket run's timings (p50_ms, tail_ms,
// throughput_per_s) and the in-process replay's layers. Every document
// carries both. The exit code is 0 only when every output check
// passed. --reference names a digest file ("size workload seed digest"
// lines) the metro_cold and city_cold placements must match.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/e2e/replay.h"
#include "bench/e2e/report.h"
#include "bench/e2e/stats.h"
#include "bench/e2e/workloads.h"
#include "src/obs/json.h"
#include "src/util/cli.h"

namespace {

using namespace rap::bench;
using namespace rap::bench::e2e;

std::string hex(std::uint64_t value) {
  char text[20];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

/// Every digit of a measured value; JSON has no NaN, so none is printed.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

/// The digest `--reference` expects for (size, workload, seed), or "".
std::string reference_digest(const std::string& file, const std::string& size,
                             const std::string& workload, std::uint64_t seed) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot read --reference " + file);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string s;
    std::string w;
    std::uint64_t n = 0;
    std::string digest;
    if (line.empty() || line[0] == '#') continue;
    if (fields >> s >> w >> n >> digest && s == size && w == workload &&
        n == seed) {
      return digest;
    }
  }
  return "";
}

void print_table(const std::string& workload, const SocketRun& run,
                 const std::vector<BenchMetric>& metrics, double error_ratio) {
  std::cout << "== " << workload << ": " << run.attempted << " ops, "
            << run.failed << " failed, tail = p" << run.tail_percentile
            << " of " << run.latencies_ms.size() << " samples\n";
  for (const BenchMetric& metric : metrics) {
    std::cout << "  " << metric.name << " = " << number(metric.value) << " "
              << metric.unit << "\n";
  }
  std::cout << "  error_ratio = " << number(error_ratio) << " ratio\n";
  for (const std::string& problem : run.problems) {
    std::cout << "  PROBLEM: " << problem << "\n";
  }
}

int run(const rap::util::CliFlags& flags) {
  const std::string workload = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 20.0);
  const bool trace = flags.get_int("trace", 0) != 0;
  const std::string size = flags.get_string("size", "full");
  const std::filesystem::path out_dir = std::filesystem::absolute(
      flags.get_string("out-dir", "bench_results/e2e"));
  const std::string serve_bin = std::filesystem::absolute(
      flags.get_string("serve-bin", RAP_BENCH_SERVE_BIN));
  std::string reference = flags.get_string("reference", "");
  if (!reference.empty()) reference = std::filesystem::absolute(reference);
  for (const std::string& unknown : flags.unused()) {
    std::cerr << "rap_bench: unknown flag --" << unknown << "\n";
    return 2;
  }
  std::vector<std::string> workloads = {workload};
  if (workload == "all") workloads = workload_names();
  for (const std::string& name : workloads) {
    if (std::find(workload_names().begin(), workload_names().end(), name) ==
        workload_names().end()) {
      std::cerr << "rap_bench: --workload must be one of metro_cold, "
                   "serve_steady, delta_churn, city_cold, all\n";
      return 2;
    }
  }
  if (size != "full" && size != "smoke") {
    std::cerr << "rap_bench: --size must be full or smoke\n";
    return 2;
  }
  if (!(seconds > 0.0)) {
    std::cerr << "rap_bench: --seconds must be positive\n";
    return 2;
  }
  warn_if_unoptimised();
  // The open loop sleeps until each send is due; the default 50 us timer
  // slack would show up as generator lateness in every latency.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  // Inputs, sockets and the server log live in one work directory; socket
  // names stay relative to it, clear of the unix path-length limit.
  const std::filesystem::path work_dir = out_dir / "run";
  std::filesystem::create_directories(work_dir);
  if (::chdir(work_dir.c_str()) != 0) {
    throw std::runtime_error("cannot enter " + work_dir.string());
  }

  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string metrics_json;
  for (const std::string& name : workloads) {
    RunConfig config{name, seed, seconds,
                     size == "full" ? Size::kFull : Size::kSmoke, trace,
                     serve_bin};
    SocketRun socket = run_socket(config);
    const std::string stem = name + ".seed" + std::to_string(seed);
    // The result line carries the end-to-end metrics, or in a trace run
    // the per-layer ones: the socket run's timings and the replay's layers.
    // The document carries both.
    const std::vector<BenchMetric> gated = end_to_end(socket);
    std::vector<BenchMetric> layers = timings(socket);
    std::vector<BenchMetric> details;
    if (trace) {
      Replay replayed = replay(socket, out_dir / (stem + ".trace.json"));
      layers.insert(layers.end(), replayed.metrics.begin(),
                    replayed.metrics.end());
      details = std::move(replayed.details);
      for (std::string& problem : replayed.problems) {
        socket.problems.push_back(std::move(problem));
      }
    }
    const std::vector<BenchMetric>& metrics = trace ? layers : gated;
    if (!reference.empty() && socket.digest != 0) {
      const std::string expected =
          reference_digest(reference, size, name, seed);
      if (expected != hex(socket.digest)) {
        socket.problems.push_back("placement digest " + hex(socket.digest) +
                                  " differs from the reference '" + expected +
                                  "'");
      }
    }
    const double error_ratio =
        socket.attempted > 0 ? static_cast<double>(socket.failed) /
                                   static_cast<double>(socket.attempted)
                             : 1.0;
    std::vector<BenchMetric> document = gated;
    document.insert(document.end(), layers.begin(), layers.end());
    print_table(name, socket, document, error_ratio);
    document.insert(document.end(), details.begin(), details.end());
    document.push_back({"error_ratio", error_ratio, "ratio", true});
    document.push_back(
        {"tail_percentile", socket.tail_percentile, "pct", false});
    document.push_back({"ops", static_cast<double>(socket.attempted), "count",
                        false});
    for (const BenchMetric& metric : socket.diagnostics) {
      document.push_back(metric);
    }
    Context context = host_context(seed, serve_bin);
    context.push_back({"workload", name});
    context.push_back({"seconds", number(seconds)});
    context.push_back({"size", size});
    context.push_back({"trace", trace ? "1" : "0"});
    context.push_back({"placement_digest", hex(socket.digest)});
    write_bench_json(out_dir / (stem + (trace ? ".layers.json" : ".json")),
                     "rap_bench." + name, context, document);

    correct = correct && socket.problems.empty() && socket.failed == 0 &&
              socket.attempted > 0;
    attempted += socket.attempted;
    failed += socket.failed;
    for (const BenchMetric& metric : metrics) {
      const std::string key =
          workloads.size() > 1 ? name + "." + metric.name : metric.name;
      metrics_json += (metrics_json.empty() ? "" : ", ") +
                      rap::obs::json_quote(key) + ": {\"value\": " +
                      number(metric.value) + ", \"unit\": " +
                      rap::obs::json_quote(metric.unit) + "}";
    }
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics_json << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "--compare") == 0) {
      if (argc < 4) {
        std::cerr << "usage: rap_bench --compare DIR_A DIR_B "
                     "[--benchmark BENCHMARK.json]\n";
        return 2;
      }
      const rap::util::CliFlags flags(argc - 3, argv + 3);
      const std::string benchmark =
          flags.get_string("benchmark", "BENCHMARK.json");
      return compare_results(argv[2], argv[3], benchmark, std::cout);
    }
    return run(rap::util::CliFlags(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "rap_bench: " << error.what() << "\n";
    return 1;
  }
}
