// Flight recorder: the event half of the observability layer.
//
// Where src/obs/metrics.h and src/obs/trace.h produce *aggregates* (merged
// counters, a collapsed span tree), the flight recorder keeps the raw
// timeline: bounded per-thread ring buffers of timestamped events — span
// begin/end pairs emitted by the existing obs::Span call sites, counter
// updates, and instant events with one optional key/value argument
// (request id, scenario key, ...). The rings are merged deterministically
// and exported as Chrome trace-event JSON (src/obs/trace_export.h, schema
// rap.trace.v1), so a slow or wrong request can be reconstructed event by
// event in Perfetto instead of inferred from totals.
//
// Cost model. At most one FlightRecorder is installed process-wide at a
// time; every emit site guards on recorder_active() — a single relaxed
// atomic load plus a branch when no recorder is installed, cheap enough to
// leave in release-built hot loops (the same budget as the disabled
// telemetry path, enforced by tests/obs/recorder_overhead_test.cpp). When
// recording, each thread appends to its own fixed-capacity ring with no
// locking on the hot path; a full ring overwrites its oldest events and
// counts the drops, so a runaway workload can never exhaust memory.
//
// Clock domain. Timestamps come from EventClock: by default, nanoseconds of
// steady_clock elapsed since process start (monotonic, comparable across
// threads, small enough to survive double microsecond conversion). Under a
// VirtualClockGuard the clock instead reads a process-global tick counter
// that only moves when advance_virtual() is called — the server advances it
// once per request — which makes every timestamp, latency histogram and
// stats snapshot bit-reproducible for golden tests and transcripts.
//
// Quiescence contract. record() is safe from any number of threads
// concurrently (each writes its own ring), but collect() and the recorder's
// destructor require that no thread is concurrently recording: snapshot
// after workers have joined, or — in the server — while holding the request
// mutex. This mirrors the merge contract of MetricsRegistry and Tracer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace rap::obs {

/// Timestamp source for recorder events and the structured event log.
class EventClock {
 public:
  /// Nanoseconds since process start (real mode) or since the enclosing
  /// VirtualClockGuard was installed (virtual mode).
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

  /// True while a VirtualClockGuard is alive.
  [[nodiscard]] static bool virtual_enabled() noexcept;

  /// Moves the virtual clock forward; a no-op in real mode, so callers
  /// (e.g. the server's per-request tick) need no mode check.
  static void advance_virtual(std::uint64_t ns) noexcept;
};

/// RAII switch into the deterministic clock domain: while alive, now_ns()
/// reads a tick counter starting at 0 that only advance_virtual() moves.
/// Guards do not nest (the second construction throws std::logic_error) and
/// the destructor restores the real clock. Install before any recording
/// starts so every event shares one domain.
class VirtualClockGuard {
 public:
  VirtualClockGuard();
  ~VirtualClockGuard();
  VirtualClockGuard(const VirtualClockGuard&) = delete;
  VirtualClockGuard& operator=(const VirtualClockGuard&) = delete;
};

enum class EventKind : std::uint8_t {
  kSpanBegin = 0,  ///< obs::Span construction ("B" in the Chrome export)
  kSpanEnd = 1,    ///< obs::Span destruction ("E")
  kCounter = 2,    ///< counter/gauge update ("C"), delta or value in `value`
  kInstant = 3,    ///< point event ("i") with an optional key/value argument
};

/// One recorded event. Names follow the rap.telemetry.v1 grammar
/// (lowercase dotted segments); args are free-form strings.
struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  std::uint64_t ts_ns = 0;  ///< EventClock domain
  double value = 0.0;       ///< kCounter payload
  std::string name;
  std::string arg_key;    ///< empty when the event carries no argument
  std::string arg_value;
};

/// Fixed-capacity single-producer ring of events: push overwrites the
/// oldest entry once full and counts the overwrite as a drop. snapshot()
/// returns the retained events oldest-first. Thread-compatible — one
/// producer; snapshot only while the producer is quiescent.
class EventRing {
 public:
  /// `capacity` must be >= 1 (throws std::invalid_argument otherwise).
  explicit EventRing(std::size_t capacity);

  void push(TraceEvent event);

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  /// Events currently retained (<= capacity()).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Total events ever pushed, including overwritten ones.
  [[nodiscard]] std::uint64_t total_pushed() const noexcept { return pushed_; }
  /// Events lost to overwriting (total_pushed() - size()).
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> slots_;
  std::uint64_t pushed_ = 0;  // slots_[pushed_ % capacity] is the next write
};

struct RecorderOptions {
  /// Events retained per recording thread before the ring wraps.
  std::size_t ring_capacity = 8192;
};

/// The process-wide event recorder. Construction installs it (at most one
/// at a time — a second construction throws std::logic_error); destruction
/// uninstalls it. Threads register lazily on their first record() and keep
/// a private ring for the recorder's lifetime; thread indices are assigned
/// in registration order.
class FlightRecorder {
 public:
  explicit FlightRecorder(RecorderOptions options = {});
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The installed recorder, or nullptr. Prefer the recorder_active() fast
  /// path at emit sites.
  [[nodiscard]] static FlightRecorder* active() noexcept;

  /// Appends to the calling thread's ring (registering the thread first if
  /// needed). Hot path: no lock after registration.
  void record(TraceEvent event);

  /// One thread's retained timeline.
  struct ThreadLog {
    std::size_t thread_index = 0;  ///< registration order
    std::uint64_t dropped = 0;
    std::vector<TraceEvent> events;  ///< oldest first
  };

  /// Snapshot of every registered thread's ring, in registration order.
  /// Requires recording quiescence (see the header comment).
  [[nodiscard]] std::vector<ThreadLog> collect() const RAP_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t thread_count() const RAP_EXCLUDES(mutex_);
  /// Events currently retained across all rings.
  [[nodiscard]] std::uint64_t total_events() const RAP_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t total_dropped() const RAP_EXCLUDES(mutex_);
  [[nodiscard]] const RecorderOptions& options() const noexcept {
    return options_;
  }

 private:
  EventRing& ring_for_current_thread() RAP_EXCLUDES(mutex_);

  RecorderOptions options_;
  std::uint64_t id_;  // distinguishes recorder incarnations for the TL cache
  mutable util::Mutex mutex_;
  // The registry only; each ring's *contents* are single-producer state
  // owned by the registering thread (snapshots require quiescence).
  std::vector<std::unique_ptr<EventRing>> rings_ RAP_GUARDED_BY(mutex_);
};

namespace detail {
/// The installed recorder; read with relaxed ordering on hot paths. Only
/// FlightRecorder's constructor/destructor write it.
extern std::atomic<FlightRecorder*> g_active_recorder;
}  // namespace detail

/// True when a FlightRecorder is installed. One relaxed atomic load — the
/// guard every emit site (Span, add_counter, the serve loop) checks first.
[[nodiscard]] inline bool recorder_active() noexcept {
  return detail::g_active_recorder.load(std::memory_order_relaxed) != nullptr;
}

/// Emit helpers: no-ops (after the recorder_active() branch) when no
/// recorder is installed, so call sites need no guards of their own.
void record_span_begin(std::string_view name);
void record_span_end(std::string_view name);
void record_counter_event(std::string_view name, double value);
void record_instant(std::string_view name);
void record_instant(std::string_view name, std::string_view arg_key,
                    std::string_view arg_value);

}  // namespace rap::obs
