// Comparison engine behind the bench_compare tool: loads rap.bench.v1
// documents (bench/common.h documents the schema) and diffs a current
// result against a committed baseline, metric by metric.
//
// Tolerance model. Every metric carries a unit, and the unit decides which
// tolerance class applies:
//   * wall-clock-derived units (ms, s, x, ratio, req_s) are noisy across
//     machines and get the loose `time_tolerance`;
//   * anything else (count, bytes, ...) is expected to be deterministic and
//     gets the strict `tolerance` (default 0.10, the ">10% regression
//     fails" gate from the CI contract).
// A metric regresses when it moves in its bad direction (per
// lower_is_better) by more than the applicable tolerance, measured as a
// fraction of the baseline value. Baselines of exactly zero only match a
// current value of zero for strict metrics and are skipped for time
// metrics (0 ms baselines are timer artifacts, not contracts).
//
// Missing metrics are failures in one direction only: a baseline metric
// absent from the current run means coverage was lost (fail); a current
// metric absent from the baseline is new and reported informationally
// (refresh the baseline to adopt it).
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace rap::tools {

/// One metric from a rap.bench.v1 document.
struct BenchMetricValue {
  std::string name;
  double value = 0.0;
  std::string unit = "ms";
  bool lower_is_better = true;
};

/// One parsed rap.bench.v1 document.
struct BenchDoc {
  std::string bench;
  std::map<std::string, std::string> context;
  std::vector<BenchMetricValue> metrics;
};

/// Parses a rap.bench.v1 document from `text`. Throws std::runtime_error
/// (mentioning `origin`) on malformed JSON, a wrong/missing "schema" tag,
/// or missing required fields.
[[nodiscard]] BenchDoc parse_bench_doc(const std::string& text,
                                       const std::string& origin);

/// Reads and parses the file at `path`. Throws std::runtime_error when the
/// file cannot be read or does not parse as rap.bench.v1.
[[nodiscard]] BenchDoc load_bench_file(const std::filesystem::path& path);

/// True when `unit` names a wall-clock-derived quantity (ms, s, x, ratio,
/// req_s) that should be compared with the loose time tolerance.
[[nodiscard]] bool is_time_unit(const std::string& unit);

/// Knobs for one comparison run.
struct CompareOptions {
  /// Allowed fractional drift for deterministic (non-time) metrics.
  double tolerance = 0.10;
  /// Allowed fractional drift for time-class metrics; defaults looser
  /// because wall-clock numbers do not transfer across machines.
  double time_tolerance = 0.50;
};

/// Per-metric verdicts, ordered from benign to failing.
enum class MetricStatus {
  kOk,        ///< within tolerance (includes improvements)
  kNew,       ///< present in current only; informational
  kMissing,   ///< present in baseline only; a failure (coverage lost)
  kRegressed  ///< moved in the bad direction past tolerance; a failure
};

/// The verdict for one metric name across baseline and current.
struct MetricComparison {
  std::string name;
  std::string unit;
  double baseline = 0.0;
  double current = 0.0;
  /// Signed fractional change relative to the baseline, positive when the
  /// value grew. Zero when either side is missing.
  double delta_fraction = 0.0;
  /// The tolerance that applied (strict or time), for the report.
  double tolerance_used = 0.0;
  MetricStatus status = MetricStatus::kOk;
};

/// Context keys naming the host a document was measured on (bench/common.h
/// writes both into every document). A difference makes wall times
/// incomparable, so compare_docs warns about it; it never fails the gate.
inline constexpr const char* kHostContextKeys[] = {"hardware_concurrency",
                                                   "build_type"};

/// Result of comparing one baseline/current document pair.
struct CompareResult {
  std::string bench;
  std::vector<MetricComparison> metrics;
  /// One line per kHostContextKeys entry whose value differs between the
  /// documents (a key one side lacks reads "(unrecorded)"). Informational.
  std::vector<std::string> warnings;
  [[nodiscard]] bool failed() const;
};

/// Compares every baseline metric against the current document. Metric
/// order follows the baseline document, with current-only metrics appended
/// as kNew; host context differences land in `warnings`. Throws
/// std::runtime_error when the documents name different benches
/// (comparing apples to oranges is a usage error, not a regression).
[[nodiscard]] CompareResult compare_docs(const BenchDoc& baseline,
                                         const BenchDoc& current,
                                         const CompareOptions& options);

/// Human-readable report, one line per metric, then one WARNING line per
/// host context difference, then a PASS/FAIL trailer.
[[nodiscard]] std::string format_report(const CompareResult& result);

}  // namespace rap::tools
