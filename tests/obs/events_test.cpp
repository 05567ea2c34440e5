// Unit tests for the flight-recorder primitives (src/obs/events.h): ring
// overflow/wraparound semantics, the virtual clock domain, recorder
// installation rules, and the emit helpers' integration with obs::Span and
// add_counter.
#include "src/obs/events.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/telemetry.h"
#include "src/obs/trace.h"

namespace rap::obs {
namespace {

TraceEvent instant(std::string name, std::uint64_t ts_ns = 0) {
  TraceEvent event;
  event.kind = EventKind::kInstant;
  event.ts_ns = ts_ns;
  event.name = std::move(name);
  return event;
}

TEST(EventRing, RejectsZeroCapacity) {
  EXPECT_THROW(EventRing(0), std::invalid_argument);
}

TEST(EventRing, FillsThenOverwritesOldest) {
  EventRing ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.size(), 0u);

  ring.push(instant("a"));
  ring.push(instant("b"));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);

  ring.push(instant("c"));
  ring.push(instant("d"));  // overwrites "a"
  ring.push(instant("e"));  // overwrites "b"
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total_pushed(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);

  const std::vector<TraceEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "c");  // oldest retained first
  EXPECT_EQ(events[1].name, "d");
  EXPECT_EQ(events[2].name, "e");
}

TEST(EventRing, WrapsManyTimesAndKeepsNewestWindow) {
  EventRing ring(4);
  for (int i = 0; i < 103; ++i) {
    ring.push(instant(std::to_string(i)));
  }
  EXPECT_EQ(ring.total_pushed(), 103u);
  EXPECT_EQ(ring.dropped(), 99u);
  const std::vector<TraceEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].name,
              std::to_string(99 + i));
  }
}

TEST(VirtualClock, StartsAtZeroAndOnlyAdvanceMovesIt) {
  ASSERT_FALSE(EventClock::virtual_enabled());
  const VirtualClockGuard guard;
  EXPECT_TRUE(EventClock::virtual_enabled());
  EXPECT_EQ(EventClock::now_ns(), 0u);
  EXPECT_EQ(EventClock::now_ns(), 0u);  // reading does not advance
  EventClock::advance_virtual(1'000'000);
  EXPECT_EQ(EventClock::now_ns(), 1'000'000u);
  EventClock::advance_virtual(5);
  EXPECT_EQ(EventClock::now_ns(), 1'000'005u);
}

TEST(VirtualClock, GuardsDoNotNest) {
  const VirtualClockGuard guard;
  EXPECT_THROW(VirtualClockGuard(), std::logic_error);
}

TEST(VirtualClock, RealModeIsMonotonicAndAdvanceIsANoOp) {
  ASSERT_FALSE(EventClock::virtual_enabled());
  const std::uint64_t before = EventClock::now_ns();
  EventClock::advance_virtual(1'000'000'000);  // must not touch real time
  const std::uint64_t after = EventClock::now_ns();
  EXPECT_GE(after, before);
  EXPECT_LT(after - before, 1'000'000'000u);
}

TEST(FlightRecorder, SecondInstallationThrows) {
  const FlightRecorder recorder;
  EXPECT_THROW(FlightRecorder(), std::logic_error);
  EXPECT_EQ(FlightRecorder::active(), &recorder);
}

TEST(FlightRecorder, InactiveByDefaultAndHelpersAreNoOps) {
  ASSERT_FALSE(recorder_active());
  // Must not crash or allocate recorder state.
  record_span_begin("noop");
  record_span_end("noop");
  record_counter_event("noop", 1.0);
  record_instant("noop");
  record_instant("noop", "key", "value");
}

TEST(FlightRecorder, CapturesSpansCountersAndInstantsInOrder) {
  const VirtualClockGuard clock;
  FlightRecorder recorder;
  ASSERT_TRUE(recorder_active());

  {
    const Span outer("outer");
    EventClock::advance_virtual(10);
    add_counter("work.items", 3);
    record_instant("work.marker", "key", "v1");
    EventClock::advance_virtual(10);
  }

  const auto logs = recorder.collect();
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs[0].thread_index, 0u);
  EXPECT_EQ(logs[0].dropped, 0u);
  const std::vector<TraceEvent>& events = logs[0].events;
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, EventKind::kSpanBegin);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].ts_ns, 0u);
  EXPECT_EQ(events[1].kind, EventKind::kCounter);
  EXPECT_EQ(events[1].name, "work.items");
  EXPECT_EQ(events[1].value, 3.0);
  EXPECT_EQ(events[2].kind, EventKind::kInstant);
  EXPECT_EQ(events[2].arg_key, "key");
  EXPECT_EQ(events[2].arg_value, "v1");
  EXPECT_EQ(events[3].kind, EventKind::kSpanEnd);
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[3].ts_ns, 20u);
}

TEST(FlightRecorder, RingCapacityBoundsRetentionAndCountsDrops) {
  FlightRecorder recorder(RecorderOptions{4});
  for (int i = 0; i < 10; ++i) {
    record_instant("spam");
  }
  EXPECT_EQ(recorder.total_events(), 4u);
  EXPECT_EQ(recorder.total_dropped(), 6u);
  const auto logs = recorder.collect();
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs[0].events.size(), 4u);
}

TEST(FlightRecorder, ThreadsGetPrivateRingsInRegistrationOrder) {
  FlightRecorder recorder;
  record_instant("main.first");  // registers the main thread as index 0
  std::thread worker([] {
    for (int i = 0; i < 3; ++i) record_instant("worker.event");
  });
  worker.join();
  EXPECT_EQ(recorder.thread_count(), 2u);
  const auto logs = recorder.collect();
  ASSERT_EQ(logs.size(), 2u);
  EXPECT_EQ(logs[0].thread_index, 0u);
  EXPECT_EQ(logs[0].events.size(), 1u);
  EXPECT_EQ(logs[0].events[0].name, "main.first");
  EXPECT_EQ(logs[1].thread_index, 1u);
  EXPECT_EQ(logs[1].events.size(), 3u);
}

TEST(FlightRecorder, ReinstallationStartsFresh) {
  {
    FlightRecorder first;
    record_instant("old");
    EXPECT_EQ(first.total_events(), 1u);
  }
  ASSERT_FALSE(recorder_active());
  FlightRecorder second;
  record_instant("new");
  const auto logs = second.collect();
  ASSERT_EQ(logs.size(), 1u);
  ASSERT_EQ(logs[0].events.size(), 1u);
  EXPECT_EQ(logs[0].events[0].name, "new");
}

}  // namespace
}  // namespace rap::obs
