// What rap_bench writes: the host context every result document carries,
// the end-to-end metrics of a socket run, and `rap_bench --compare`, which
// sets two result directories side by side against BENCHMARK.json's bounds.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "bench/e2e/workloads.h"

namespace rap::bench::e2e {

using Context = std::vector<std::pair<std::string, std::string>>;

/// nproc, hardware_concurrency, RAP_THREADS, build type, compiler, git
/// describe, whether the binary is optimised, the seed and the rap_serve
/// path.
[[nodiscard]] Context host_context(std::uint64_t seed,
                                   const std::string& serve_bin);

/// Warns on stderr when this binary was compiled without optimisation:
/// its timings would not be comparable with anything.
void warn_if_unoptimised();

/// setup_s and peak_rss_mb of a run: the end_to_end metrics of
/// BENCHMARK.json, in its order.
[[nodiscard]] std::vector<BenchMetric> end_to_end(const SocketRun& run);

/// p50_ms, tail_ms and throughput_per_s of a run. Every run measures them
/// and writes them to its document; BENCHMARK.json lists them among the
/// per-layer diagnostics, because on a shared host they spread wider
/// between runs than the bound a regression gate needs (README.md here).
[[nodiscard]] std::vector<BenchMetric> timings(const SocketRun& run);

/// Reads the rap_bench documents (rap.bench.v1, bench "rap_bench.<name>")
/// of two directories and prints one row per (workload, metric): each
/// side's median and quartiles over its runs, and for metrics with a bound
/// in `benchmark_json` whether the sides agree within it, disagree, or are
/// unresolved because a side spreads wider than the bound (setup_s is
/// judged on its medians alone). Returns 0 when every bounded metric
/// agrees.
int compare_results(const std::filesystem::path& dir_a,
                    const std::filesystem::path& dir_b,
                    const std::filesystem::path& benchmark_json,
                    std::ostream& out);

}  // namespace rap::bench::e2e
