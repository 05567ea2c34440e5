// The traced replay (--trace 1): repeats a socket run's operations
// in-process, twice. The first pass feeds the request lines to an
// in-process Server::handle_line — the untraced reference, and the base
// the transport layer is measured against. The second pass calls the
// layers' public functions directly, each call under an obs::Span on the
// replay thread's obs::Tracer, with an obs::FlightRecorder installed so the
// library's own spans land in the Chrome trace too. After each load or
// delta it re-runs the pieces of the build it cannot see into, so the
// detour share of a build can be derived. Both passes must give the socket
// run's answers exactly; the tracers fold into the per-layer metrics.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/e2e/workloads.h"
#include "src/obs/trace.h"

namespace rap::bench::e2e {

struct Replay {
  std::vector<BenchMetric> metrics;  ///< per_layer_metrics(), in that order
  /// For the run's document only: every layer's self time in ms and what
  /// the trace export kept and dropped.
  std::vector<BenchMetric> details;
  std::vector<std::string> problems;  ///< disagreements with the socket run
};

/// Replays `run` and writes the layer pass's timeline to `trace_path` as a
/// Chrome trace.
[[nodiscard]] Replay replay(const SocketRun& run,
                            const std::filesystem::path& trace_path);

/// Every per-layer metric name with its unit and direction, the same for
/// all workloads (a layer a workload never calls reports 0 calls and a 0
/// share).
[[nodiscard]] const std::vector<BenchMetric>& per_layer_metrics();

/// Self time and calls of every node of one name.
struct LayerTotal {
  std::uint64_t self_ns = 0;
  std::uint64_t calls = 0;
};

/// Folds the tracers' trees into totals per span name: a layer's self time
/// is its spans' time minus the part their child spans cover
/// (Tracer::Node::self_ns), summed wherever the name occurs in a tree.
[[nodiscard]] std::map<std::string, LayerTotal> fold_layers(
    std::span<const obs::Tracer> tracers);

}  // namespace rap::bench::e2e
