// The placement server: line-delimited JSON requests over stdio or a unix
// socket (src/serve/transport.h). One request per line in, one response per
// line out, schema "rap.serve.v1" (src/serve/protocol.h).
//
// Operations:
//   load        — build, cache-fetch or store-rehydrate a scenario, open a
//                 session on it for the requesting client
//   place       — warm-start lazy greedy placement for one budget k
//   place_batch — many budgets from one place at the largest: greedy picks
//                 one RAP at a time, so each budget's nodes are a prefix of
//                 that run and equal, with their value, a place at that k
//   evaluate    — objective value of an explicit placement
//   delta       — apply add_flow / remove_flow / scale_flow mutations
//   stats       — live introspection snapshot: cache hit/miss/eviction
//                 rates, store persistence/rehydration counts, client
//                 count, warm-start vs full-rerun counts, per-verb latency
//                 percentiles, uptime, recorder and clock state (all
//                 deterministic under the virtual clock — see below)
//   shutdown    — acknowledge and stop every run loop and transport
//
// Concurrency. Every client (one transport connection, or the stdio loop as
// kStdioClient) owns a session slot in the SessionScheduler
// (src/serve/scheduler.h). handle_line(client, line) locks ONLY that
// client's slot for the duration of the request, so distinct clients place,
// price and delta concurrently while one client's requests stay serialized
// in arrival order (the per-connection response-order contract). Shared
// state is guarded by two short-lived locks, never held across a placement:
// cache_mutex_ (scenario cache + store index) and stats_mutex_ (request
// counters, verb histograms, merged telemetry). Scenario builds — the
// expensive part — run outside every lock; two clients racing to build the
// same key both succeed and the second insert refreshes the first (benign,
// keys are content-addressed so the results are interchangeable).
//
// Persistence. With ServerOptions::store_dir set, built scenarios are
// persisted to a crash-safe memory-mapped segment store
// (src/serve/store.h) and the constructor rehydrates the cache from disk,
// so a restarted server serves every previously stored scenario without
// re-running city generation or map matching. A load
// response reports where its scenario came from ("source": cache | store |
// built).
//
// Observability. Request latencies are measured on obs::EventClock, so
// under a VirtualClockGuard — where the server advances the clock by
// exactly one millisecond tick per request — every latency, uptime and
// percentile in the stats snapshot is a pure function of the request
// sequence: byte-identical output for identical single-client inputs, at
// any RAP_THREADS (tests/serve/server_stats_test.cpp holds this as a golden
// contract). Each request records into a private Telemetry merged into the
// server's under stats_mutex_, so concurrent clients never share a sink. An
// optional EventLog (ServerOptions::log) receives structured request
// start/finish/error lines plus cache and warm-start events, and an
// installed FlightRecorder captures the raw span/instant timeline for
// rap.trace.v1 export.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "src/obs/event_log.h"
#include "src/obs/telemetry.h"
#include "src/serve/protocol.h"
#include "src/serve/scenario_cache.h"
#include "src/serve/scheduler.h"
#include "src/serve/session.h"
#include "src/serve/store.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace rap::serve {

struct ServerOptions {
  /// Scenario cache budget; 0 disables caching.
  std::size_t cache_bytes = 256ULL * 1024 * 1024;
  /// Structured JSONL sink for request/cache/warm-start events; nullptr
  /// disables logging. Must outlive the server.
  obs::EventLog* log = nullptr;
  /// Segment store directory (rap_serve --store-dir); empty disables
  /// persistence. The constructor opens the store and rehydrates the cache
  /// from it, and every scenario built afterwards is persisted under its
  /// content key.
  std::string store_dir;
};

class Server {
 public:
  /// Throws std::runtime_error when options.store_dir is set but cannot be
  /// created.
  explicit Server(ServerOptions options = {});

  /// Handles one request line for the stdio client and returns the response
  /// line (no trailing newline). Never throws: every failure becomes a
  /// structured error response. Thread-safe.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Handles one request line for `client`. Requests of the same client are
  /// processed serially in call order; requests of distinct clients run
  /// concurrently. Thread-safe, never throws.
  [[nodiscard]] std::string handle_line(ClientId client,
                                        const std::string& line);

  /// Registers a transport connection as a new client with its own session
  /// slot. Pair with close_client.
  [[nodiscard]] ClientId open_client() { return scheduler_.open_client(); }

  /// Drops a client and destroys its session (after any in-flight request
  /// of that client finishes).
  void close_client(ClientId client) { scheduler_.close_client(client); }

  /// Open clients, the stdio client included.
  [[nodiscard]] std::size_t client_count() const {
    return scheduler_.client_count();
  }

  /// Reads request lines from `in` until EOF or a shutdown request, writing
  /// one response line per request to `out` (flushed per line, so clients
  /// can pipeline over a pipe). Runs as kStdioClient. Returns 0.
  int run(std::istream& in, std::ostream& out);

  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

  /// Server-lifetime telemetry (all requests), for --metrics-out export.
  /// Take no reference while handle_line may run concurrently.
  // Documented quiescent read: callers export after every run loop has
  // stopped, so the stats_mutex_ guard is deliberately not taken here.
  [[nodiscard]] const obs::Telemetry& telemetry() const noexcept
      RAP_NO_THREAD_SAFETY_ANALYSIS {
    return telemetry_;
  }

  /// The segment store, or nullptr when persistence is disabled.
  [[nodiscard]] const ScenarioStore* store() const noexcept {
    return store_.get();
  }

  /// Scenarios rehydrated from the store by the constructor.
  [[nodiscard]] std::size_t rehydrated_at_start() const noexcept {
    return rehydrated_at_start_;
  }

 private:
  using ClientLock = SessionScheduler::ClientLock;

  JsonValue dispatch(ClientLock& client, const JsonValue::Object& request);
  JsonValue handle_load(ClientLock& client, const JsonValue::Object& request);
  JsonValue handle_place(ClientLock& client, const JsonValue::Object& request);
  JsonValue handle_place_batch(ClientLock& client,
                               const JsonValue::Object& request);
  JsonValue handle_evaluate(ClientLock& client,
                            const JsonValue::Object& request);
  JsonValue handle_delta(ClientLock& client, const JsonValue::Object& request);
  JsonValue handle_stats(ClientLock& client, const JsonValue::Object& request);

  /// The client's open session, or a no_session error.
  static Session& session_or_throw(ClientLock& client);

  /// Folds one request's latency into the per-verb histogram. REQUIRES the
  /// stats lock: callers batch this with their other counter updates in a
  /// single micro-critical section.
  void record_verb_latency(const char* verb, double elapsed_ms)
      RAP_REQUIRES(stats_mutex_);

  ServerOptions options_;
  // Guards cache_ (and store_ put/load stay internally synchronized); held
  // only around lookup/insert/stats, never across a build or placement.
  mutable util::Mutex cache_mutex_;
  ScenarioCache cache_ RAP_GUARDED_BY(cache_mutex_);
  std::unique_ptr<ScenarioStore> store_;
  SessionScheduler scheduler_;
  // Guards every member below it; held only for counter/histogram updates.
  mutable util::Mutex stats_mutex_;
  obs::Telemetry telemetry_ RAP_GUARDED_BY(stats_mutex_);
  std::uint64_t requests_ RAP_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t errors_ RAP_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t scenario_builds_ RAP_GUARDED_BY(stats_mutex_) = 0;
  // Latency distribution per validated verb ("other" buckets unknown ops
  // and unparseable lines). Sorted map -> deterministic stats field order.
  std::map<std::string, obs::Histogram, std::less<>> verb_latency_
      RAP_GUARDED_BY(stats_mutex_);
  std::size_t rehydrated_at_start_ = 0;
  std::uint64_t start_ns_ = 0;  // EventClock at construction
  std::atomic<bool> shutdown_{false};
  std::atomic<std::int64_t> pending_{0};
};

}  // namespace rap::serve
