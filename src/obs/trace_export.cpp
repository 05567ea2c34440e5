#include "src/obs/trace_export.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/obs/json.h"
#include "src/util/text_file.h"

namespace rap::obs {
namespace {

struct FlatEvent {
  std::size_t tid = 0;
  std::size_t order = 0;  // position in the flattened stream, for stability
  const TraceEvent* event = nullptr;
};

const char* phase_for(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSpanBegin: return "B";
    case EventKind::kSpanEnd: return "E";
    case EventKind::kCounter: return "C";
    case EventKind::kInstant: return "i";
  }
  return "i";
}

void append_event(std::ostringstream& out, const FlatEvent& flat) {
  const TraceEvent& event = *flat.event;
  // Chrome "ts" is microseconds; the process-start epoch keeps the value
  // small enough that the double conversion is exact at ns resolution.
  const double ts_us = static_cast<double>(event.ts_ns) / 1e3;
  out << "{\"name\":" << json_quote(event.name) << ",\"ph\":\""
      << phase_for(event.kind) << "\"";
  if (event.kind == EventKind::kInstant) {
    out << ",\"s\":\"t\"";  // thread-scoped instant
  }
  out << ",\"ts\":" << json_number_repr(ts_us) << ",\"pid\":1,\"tid\":"
      << (flat.tid + 1);
  if (event.kind == EventKind::kCounter) {
    out << ",\"args\":{\"value\":" << json_number_repr(event.value) << "}";
  } else if (!event.arg_key.empty()) {
    out << ",\"args\":{" << json_quote(event.arg_key) << ":"
        << json_quote(event.arg_value) << "}";
  }
  out << "}";
}

}  // namespace

std::string to_chrome_trace(const FlightRecorder& recorder,
                            ExportSummary* summary) {
  const std::vector<FlightRecorder::ThreadLog> logs = recorder.collect();

  ExportSummary result;
  result.threads = logs.size();

  std::vector<FlatEvent> flat;
  for (const FlightRecorder::ThreadLog& log : logs) {
    result.dropped_events += log.dropped;
    // Prepass: drop "E" events whose "B" was overwritten. Walking oldest to
    // newest, an end with no open begin on this thread is unmatched.
    std::size_t depth = 0;
    for (const TraceEvent& event : log.events) {
      if (event.kind == EventKind::kSpanBegin) {
        ++depth;
      } else if (event.kind == EventKind::kSpanEnd) {
        if (depth == 0) {
          ++result.unmatched_ends;
          continue;
        }
        --depth;
      }
      flat.push_back({log.thread_index, flat.size(), &event});
    }
  }

  // Merge: timestamp order, ties broken by flattening order (thread
  // registration order, then ring order) — deterministic for equal stamps,
  // which the virtual clock produces routinely.
  std::stable_sort(flat.begin(), flat.end(),
                   [](const FlatEvent& a, const FlatEvent& b) {
                     return a.event->ts_ns < b.event->ts_ns;
                   });
  result.events_exported = flat.size();

  std::ostringstream out;
  out << "{\"otherData\":{\"schema\":\"" << kTraceSchema
      << "\",\"ring_capacity\":" << recorder.options().ring_capacity
      << ",\"threads\":" << result.threads
      << ",\"dropped_events\":" << result.dropped_events
      << ",\"unmatched_ends\":" << result.unmatched_ends
      << "},\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < flat.size(); ++i) {
    if (i > 0) out << ",";
    append_event(out, flat[i]);
  }
  out << "]}";

  if (summary != nullptr) *summary = result;
  return out.str();
}

ExportSummary write_chrome_trace(const std::filesystem::path& path,
                                 const FlightRecorder& recorder) {
  ExportSummary summary;
  const std::string body = to_chrome_trace(recorder, &summary);
  util::write_text_file("obs::write_chrome_trace", path,
                        [&](std::ostream& out) { out << body << "\n"; });
  return summary;
}

}  // namespace rap::obs
