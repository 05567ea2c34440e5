#include "src/obs/events.h"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace rap::obs {
namespace {

// Virtual-clock state. The enabled flag is seq_cst (rare transitions, read
// on every now_ns in recording builds); the counter is relaxed — ordering
// between advances is established by the callers' own synchronization (the
// server's request mutex).
std::atomic<bool> g_virtual_enabled{false};
std::atomic<std::uint64_t> g_virtual_now_ns{0};

std::uint64_t real_now_ns() noexcept {
  // Process-start epoch keeps timestamps small enough that a microsecond
  // double (Chrome trace "ts") loses no precision over multi-hour runs.
  static const std::chrono::steady_clock::time_point kEpoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kEpoch)
          .count());
}

/// Per-thread cache of "my ring inside the installed recorder". The id
/// check (not pointer equality) keeps a stale cache from ever dereferencing
/// a ring of a destroyed recorder that happened to be reallocated at the
/// same address.
struct ThreadSlot {
  std::uint64_t recorder_id = 0;
  EventRing* ring = nullptr;
};
thread_local ThreadSlot t_slot;

std::atomic<std::uint64_t> g_next_recorder_id{1};

}  // namespace

namespace detail {
std::atomic<FlightRecorder*> g_active_recorder{nullptr};
}  // namespace detail

std::uint64_t EventClock::now_ns() noexcept {
  if (g_virtual_enabled.load(std::memory_order_relaxed)) {
    return g_virtual_now_ns.load(std::memory_order_relaxed);
  }
  return real_now_ns();
}

bool EventClock::virtual_enabled() noexcept {
  return g_virtual_enabled.load(std::memory_order_relaxed);
}

void EventClock::advance_virtual(std::uint64_t ns) noexcept {
  if (!g_virtual_enabled.load(std::memory_order_relaxed)) return;
  g_virtual_now_ns.fetch_add(ns, std::memory_order_relaxed);
}

VirtualClockGuard::VirtualClockGuard() {
  if (g_virtual_enabled.exchange(true)) {
    throw std::logic_error("VirtualClockGuard: guards do not nest");
  }
  g_virtual_now_ns.store(0, std::memory_order_relaxed);
}

VirtualClockGuard::~VirtualClockGuard() { g_virtual_enabled.store(false); }

EventRing::EventRing(std::size_t capacity) : slots_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("EventRing: capacity must be >= 1");
  }
}

void EventRing::push(TraceEvent event) {
  slots_[static_cast<std::size_t>(pushed_ % slots_.size())] = std::move(event);
  ++pushed_;
}

std::size_t EventRing::size() const noexcept {
  return pushed_ < slots_.size() ? static_cast<std::size_t>(pushed_)
                                 : slots_.size();
}

std::uint64_t EventRing::dropped() const noexcept { return pushed_ - size(); }

std::vector<TraceEvent> EventRing::snapshot() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest retained event is the next overwrite target once wrapped.
  const std::size_t start =
      pushed_ <= slots_.size()
          ? 0
          : static_cast<std::size_t>(pushed_ % slots_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(slots_[(start + i) % slots_.size()]);
  }
  return out;
}

FlightRecorder::FlightRecorder(RecorderOptions options)
    : options_(options),
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {
  if (options_.ring_capacity == 0) {
    throw std::invalid_argument(
        "FlightRecorder: ring_capacity must be >= 1");
  }
  FlightRecorder* expected = nullptr;
  if (!detail::g_active_recorder.compare_exchange_strong(expected, this)) {
    throw std::logic_error(
        "FlightRecorder: another recorder is already installed");
  }
}

FlightRecorder::~FlightRecorder() {
  detail::g_active_recorder.store(nullptr);
}

FlightRecorder* FlightRecorder::active() noexcept {
  return detail::g_active_recorder.load(std::memory_order_relaxed);
}

EventRing& FlightRecorder::ring_for_current_thread() {
  if (t_slot.recorder_id == id_) return *t_slot.ring;
  const util::MutexLock lock(mutex_);
  rings_.push_back(std::make_unique<EventRing>(options_.ring_capacity));
  t_slot = {id_, rings_.back().get()};
  return *t_slot.ring;
}

void FlightRecorder::record(TraceEvent event) {
  ring_for_current_thread().push(std::move(event));
}

std::vector<FlightRecorder::ThreadLog> FlightRecorder::collect() const {
  const util::MutexLock lock(mutex_);
  std::vector<ThreadLog> out;
  out.reserve(rings_.size());
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    out.push_back({i, rings_[i]->dropped(), rings_[i]->snapshot()});
  }
  return out;
}

std::size_t FlightRecorder::thread_count() const {
  const util::MutexLock lock(mutex_);
  return rings_.size();
}

std::uint64_t FlightRecorder::total_events() const {
  const util::MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->size();
  return total;
}

std::uint64_t FlightRecorder::total_dropped() const {
  const util::MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

void record_span_begin(std::string_view name) {
  FlightRecorder* recorder = FlightRecorder::active();
  if (recorder == nullptr) return;
  TraceEvent event;
  event.kind = EventKind::kSpanBegin;
  event.ts_ns = EventClock::now_ns();
  event.name = std::string(name);
  recorder->record(std::move(event));
}

void record_span_end(std::string_view name) {
  FlightRecorder* recorder = FlightRecorder::active();
  if (recorder == nullptr) return;
  TraceEvent event;
  event.kind = EventKind::kSpanEnd;
  event.ts_ns = EventClock::now_ns();
  event.name = std::string(name);
  recorder->record(std::move(event));
}

void record_counter_event(std::string_view name, double value) {
  FlightRecorder* recorder = FlightRecorder::active();
  if (recorder == nullptr) return;
  TraceEvent event;
  event.kind = EventKind::kCounter;
  event.ts_ns = EventClock::now_ns();
  event.value = value;
  event.name = std::string(name);
  recorder->record(std::move(event));
}

void record_instant(std::string_view name) {
  record_instant(name, std::string_view{}, std::string_view{});
}

void record_instant(std::string_view name, std::string_view arg_key,
                    std::string_view arg_value) {
  FlightRecorder* recorder = FlightRecorder::active();
  if (recorder == nullptr) return;
  TraceEvent event;
  event.kind = EventKind::kInstant;
  event.ts_ns = EventClock::now_ns();
  event.name = std::string(name);
  event.arg_key = std::string(arg_key);
  event.arg_value = std::string(arg_value);
  recorder->record(std::move(event));
}

}  // namespace rap::obs
