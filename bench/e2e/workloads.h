// The four workloads, driven over rap.serve.v1 against one rap_serve child
// per workload (README.md here gives the table and the reasons):
//
//   metro_cold    closed, 1 connection, cache off: load + place k=8 of a
//                 141 x 141 grid with 100,000 corridor flows
//   serve_steady  open loop over 4 connections on a cached 64 x 64 scenario:
//                 half place k in [1, 32], half evaluate of 8 nodes
//   delta_churn   closed, 4 connections, one session each: delta + place k=8
//   city_cold     closed, 1 connection, cache off: load + place k=8 of the
//                 Seattle and the Dublin city of each of 100 seeds
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/e2e/client.h"
#include "bench/e2e/inputs.h"

namespace rap::bench::e2e {

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"metro_cold", "serve_steady",
                                                 "delta_churn", "city_cold"};
  return names;
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< length of the timed phase
  Size size = Size::kFull;
  /// A trace run: serve_steady adds its unloaded phase, the base of the
  /// queue_wait diagnostic rather than of an end-to-end metric.
  bool trace = false;
  std::string serve_bin;  ///< the rap_serve binary
};

/// What one socket run measured and saw. Inputs and sockets live in the
/// current directory.
struct SocketRun {
  std::vector<double> setup_s;       ///< one per set-up repetition
  std::vector<double> latencies_ms;  ///< the ops p50 and tail are taken over
  /// The percentile tail_ms reports: supported_percentile() of the samples
  /// the workload takes over --seconds on the reference host, capped at one
  /// tail window. Fixed per workload and run length, so a run on a slow
  /// moment reports the same percentile as a fast one.
  double tail_percentile = 50.0;
  double throughput_per_s = 0.0;
  double peak_rss_mb = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< failed output checks
  /// Workload-specific numbers: the steady phases and waiting.
  std::vector<BenchMetric> diagnostics;
  /// Placement digest of the first op (metro_cold, city_cold), else 0.
  std::uint64_t digest = 0;

  // What the replay needs to repeat the run in-process.
  std::size_t cache_mb = 0;
  std::vector<std::vector<std::string>> priming;  ///< per connection
  std::vector<Completed> ops;  ///< the replayed ops, per connection in order
};

/// Runs `config.workload` over the socket. Throws std::runtime_error when
/// the server cannot be started.
[[nodiscard]] SocketRun run_socket(const RunConfig& config);

}  // namespace rap::bench::e2e
